"""Panel data model and the delimited-text schema it round-trips through.

One row per firm-period.  Output prices, quantities, productivity and the
ex-post shock are optional on disk: an external "revenue-only" file carries
inputs, input prices, revenue and target revenue shares, mirroring the
observability split that motivates the whole exercise (revenue observed,
prices and quantities not).

Floats are written with shortest round-trip formatting so that a write/read
cycle reproduces the in-memory panel bit for bit.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "PanelFormatError",
    "Panel",
    "COLUMNS",
    "OPTIONAL_COLUMNS",
    "read_panel_csv",
    "write_panel_csv",
]

COLUMNS = [
    "firm_id",
    "t",
    "K",
    "L",
    "M",
    "pL",
    "pM",
    "pK",
    "omega",
    "eps",
    "Q",
    "P",
    "R",
    "sL_star",
    "sM_star",
]

OPTIONAL_COLUMNS = {"omega", "eps", "Q", "P"}

# Columns that must be strictly positive when present.
_POSITIVE_COLUMNS = {"K", "L", "M", "pL", "pM", "pK", "Q", "P", "R", "sL_star", "sM_star"}

_INT_COLUMNS = {"firm_id", "t"}


class PanelFormatError(ValueError):
    """Raised when a panel file or in-memory panel violates the schema."""


@dataclass
class Panel:
    """Column-oriented firm panel, sorted by (firm_id, t)."""

    data: dict

    def __post_init__(self):
        self._validate()

    def _validate(self):
        cols = self.data
        missing = [c for c in COLUMNS if c not in cols and c not in OPTIONAL_COLUMNS]
        if missing:
            raise PanelFormatError(f"panel missing required columns: {missing}")
        lengths = {len(np.asarray(v)) for v in cols.values() if v is not None}
        if len(lengths) > 1:
            raise PanelFormatError(f"panel columns have unequal lengths: {sorted(lengths)}")
        n = lengths.pop() if lengths else 0
        self._n = n
        if n == 0:
            return
        fid = np.asarray(cols["firm_id"])
        t = np.asarray(cols["t"])
        order = np.lexsort((t, fid))
        if not np.array_equal(order, np.arange(n)):
            for c, v in cols.items():
                if v is not None:
                    cols[c] = np.asarray(v)[order]
            fid, t = cols["firm_id"], cols["t"]
        same_firm = fid[1:] == fid[:-1]
        if np.any(same_firm & (t[1:] == t[:-1])):
            raise PanelFormatError("duplicate (firm_id, t) rows")
        for c in _POSITIVE_COLUMNS:
            v = cols.get(c)
            if v is not None and (not np.all(np.isfinite(v)) or np.any(np.asarray(v) <= 0.0)):
                raise PanelFormatError(f"column {c} must be finite and strictly positive")
        for c in ("omega", "eps"):
            v = cols.get(c)
            if v is not None and not np.all(np.isfinite(v)):
                raise PanelFormatError(f"column {c} must be finite")

    def __len__(self) -> int:
        return self._n

    def col(self, name: str) -> Optional[np.ndarray]:
        return self.data.get(name)

    def has(self, name: str) -> bool:
        return self.data.get(name) is not None

    @property
    def rstar(self) -> np.ndarray:
        """Planned revenue P * Qstar = R / exp(eps)."""
        if not self.has("eps"):
            raise PanelFormatError("Rstar requires the eps column")
        return self.data["R"] / np.exp(self.data["eps"])

    def lag_index(self):
        """Row indices (current, previous) for consecutive periods within a firm."""
        fid = self.data["firm_id"]
        t = self.data["t"]
        cur = np.arange(1, self._n)
        ok = (fid[cur] == fid[cur - 1]) & (t[cur] == t[cur - 1] + 1)
        cur = cur[ok]
        return cur, cur - 1


# Rows are formatted in blocks of this many: each column of a block is
# formatted in one pass, without holding every field of the panel as a string.
_WRITE_BLOCK_ROWS = 512


def _format_column(col: str, values) -> list:
    if col in _INT_COLUMNS:
        return [str(v) for v in np.asarray(values).astype(np.int64).tolist()]
    return [repr(v) for v in np.asarray(values, dtype=float).tolist()]


def write_panel_csv(panel: Panel, path) -> None:
    """Write the panel column by column, in the csv module's default dialect.

    No field can contain a delimiter or a quote character, so rows are joined
    directly and end in the CRLF terminator that csv.writer uses.
    """
    present = [c for c in COLUMNS if panel.has(c)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(present) + "\r\n")
        for start in range(0, len(panel), _WRITE_BLOCK_ROWS):
            block = slice(start, start + _WRITE_BLOCK_ROWS)
            columns = [_format_column(c, panel.data[c][block]) for c in present]
            fh.write("".join(",".join(row) + "\r\n" for row in zip(*columns)))


def read_panel_csv(path) -> Panel:
    """np.loadtxt reads the body; if it fails or finds no rows, the csv loop rereads it to name the bad line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelFormatError(f"{path}: empty file, expected a header row")
        unknown = [c for c in header if c not in COLUMNS]
        if unknown:
            raise PanelFormatError(f"{path}: unknown columns {unknown}")
        duplicated = sorted({c for c in header if header.count(c) > 1})
        if duplicated:
            raise PanelFormatError(f"{path}: duplicated columns {duplicated}")
        missing = [c for c in COLUMNS if c not in header and c not in OPTIONAL_COLUMNS]
        if missing:
            raise PanelFormatError(f"{path}: missing required columns {missing}")
        dtype = [(c, np.int64 if c in _INT_COLUMNS else float) for c in header]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # loadtxt only warns on a body without rows
                rows = np.loadtxt(fh, dtype, delimiter=",", comments=None, ndmin=1)
            raw = {c: np.ascontiguousarray(rows[c]) for c in header}
        except (ValueError, UserWarning):
            fh.seek(0)
            next(reader)
            raw = {c: [] for c in header}
            for lineno, rowvals in enumerate(reader, start=2):
                if not rowvals:
                    continue
                if len(rowvals) != len(header):
                    raise PanelFormatError(
                        f"{path}: line {lineno}: expected {len(header)} fields, got {len(rowvals)}"
                    )
                for c, v in zip(header, rowvals):
                    try:
                        raw[c].append(int(v) if c in _INT_COLUMNS else float(v))
                    except ValueError:
                        raise PanelFormatError(f"{path}: line {lineno}: field {c}={v!r} is not numeric")
    data = {}
    for c in COLUMNS:
        if c in raw:
            dtype = np.int64 if c in _INT_COLUMNS else float
            data[c] = np.asarray(raw[c], dtype=dtype)
        elif c in OPTIONAL_COLUMNS:
            data[c] = None
    try:
        return Panel(data=data)
    except PanelFormatError as exc:
        raise PanelFormatError(f"{path}: {exc}") from exc

"""Panel data model and the delimited-text schema it round-trips through.

One row per firm-period.  Output prices, quantities, productivity and the
ex-post shock are optional on disk: an external "revenue-only" file carries
inputs, input prices, revenue and target revenue shares, mirroring the
observability split that motivates the whole exercise (revenue observed,
prices and quantities not).

Floats are written with shortest round-trip formatting so that a write/read
cycle reproduces the in-memory panel bit for bit.  Each field is the `repr`
of its float (the `str` of its int), byte for byte, but orjson formats a
block of rows in two calls, its ints and its floats, one bytes object a row.

Beside each CSV it writes, write_panel_csv leaves a column cache
(`panel.csv.cache` next to `panel.csv`): the SHA-256 of the CSV's bytes, then
the columns in the .npy format.  read_panel_csv hashes the CSV it is given and
takes the columns from the cache only when the digests agree, so an edited or
replaced CSV is parsed afresh.  The CSV stays the only interchange format, and
deleting the cache only costs the next read a parse.

In memory a Panel holds one array per present column, in COLUMNS order, 1-D,
contiguous and of the dtype its CSV round-trips: int64 for firm_id and t,
float64 for the rest.  An absent optional column has no key; None given for
one means absent.  The Panel builds its own dict, rows sorted by (firm_id, t),
and leaves the caller's alone; it copies a column only to convert, reorder or
make it contiguous.  The writer and the reader rely on this and coerce nothing.
"""

from __future__ import annotations

import csv
import hashlib
import io
import logging
import warnings
from dataclasses import dataclass
from pathlib import Path
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

_INT_COLUMNS = {"firm_id", "t"}

# the dtype each column is stored in, and parsed as
_DTYPES = {c: np.dtype(np.int64 if c in _INT_COLUMNS else np.float64) for c in COLUMNS}

logger = logging.getLogger(__name__)


class PanelFormatError(ValueError):
    """Raised when a panel file or in-memory panel violates the schema."""


@dataclass
class Panel:
    """Column-oriented firm panel, sorted by (firm_id, t); data holds what the module docstring states."""

    data: dict

    def __post_init__(self):
        unknown = [c for c in self.data if c not in _DTYPES]
        if unknown:
            raise PanelFormatError(f"unknown columns {unknown}")
        present = [c for c in COLUMNS if self.data.get(c) is not None]  # None means absent
        missing = [c for c in COLUMNS if c not in present and c not in OPTIONAL_COLUMNS]
        if missing:
            raise PanelFormatError(f"panel missing required columns: {missing}")
        data = {}
        for c in present:
            v = np.asarray(self.data[c])
            if v.ndim != 1 or not np.can_cast(v.dtype, _DTYPES[c]):
                raise PanelFormatError(f"column {c} must be a 1-D array of {_DTYPES[c]}, got {v.dtype} of shape {v.shape}")
            data[c] = np.ascontiguousarray(v, _DTYPES[c])
        lengths = {v.size for v in data.values()}
        if len(lengths) > 1:
            raise PanelFormatError(f"panel columns have unequal lengths: {sorted(lengths)}")
        self._n = lengths.pop()
        order = np.lexsort((data["t"], data["firm_id"]))
        if not np.array_equal(order, np.arange(self._n)):
            data = {c: v[order] for c, v in data.items()}
        fid, t = data["firm_id"], data["t"]
        if np.any((fid[1:] == fid[:-1]) & (t[1:] == t[:-1])):
            raise PanelFormatError("duplicate (firm_id, t) rows")
        for c, v in data.items():
            positive = c not in ("omega", "eps")
            if c not in _INT_COLUMNS and not (np.all(np.isfinite(v)) and (not positive or np.all(v > 0.0))):
                raise PanelFormatError(f"column {c} must be finite" + " and strictly positive" * positive)
        self.data = data

    def __len__(self) -> int:
        return self._n

    def col(self, name: str) -> Optional[np.ndarray]:
        return self.data.get(name)

    def has(self, name: str) -> bool:
        return name in self.data

    @property
    def rstar(self) -> np.ndarray:
        """Planned revenue P * Qstar = R / exp(eps)."""
        if not self.has("eps"):
            raise PanelFormatError("Rstar requires the eps column")
        return self.data["R"] / np.exp(self.data["eps"])

    def lag_index(self):
        """Row indices (current, previous) for consecutive periods within a firm."""
        fid, t = self.data["firm_id"], self.data["t"]
        cur = np.arange(1, self._n)
        cur = cur[(fid[cur] == fid[cur - 1]) & (t[cur] == t[cur - 1] + 1)]
        return cur, cur - 1


# Rows are formatted in blocks of this many: each block is two orjson calls,
# without holding every row of the panel as bytes.
_WRITE_BLOCK_ROWS = 512


def _format_rows(a: np.ndarray) -> list:
    """One bytes object per row of the 2-D block a, its fields joined by commas."""
    import orjson

    rows = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")
    if a.dtype == float:  # orjson's notation differs from repr's outside 1e-4 <= |x| < 1e16
        mag = np.abs(a)
        for i in np.flatnonzero(((mag != 0.0) & ((mag < 1e-4) | (mag >= 1e16))).any(axis=1)):
            rows[i] = ",".join(map(repr, a[i].tolist())).encode("ascii")
    return rows


def _row_dtype(header) -> np.dtype:
    """One field per column of the header, in its order: what np.loadtxt returns for the body."""
    return np.dtype([(c, _DTYPES[c]) for c in header])


def _cache_path(path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".cache")


def write_panel_csv(panel: Panel, path) -> None:
    """Write the panel in blocks of rows, in the csv module's default dialect, and its column cache.

    No field can contain a delimiter or a quote character, so rows are joined
    directly and end in the CRLF terminator that csv.writer uses.  A block is
    one orjson.dumps call on its int columns (firm_id and t, first in COLUMNS)
    and one on its floats, each split into rows; a row with a float whose
    orjson notation is not repr's (nonzero |x| < 1e-4 or >= 1e16) is repr's,
    so the bytes are those of repr and str on every value.  The cache
    beside the CSV holds the 32-byte SHA-256 of the CSV's bytes followed by
    the structured array that np.loadtxt parses from its body, in the .npy
    format (version 1.0, no pickles); both files are byte-identical for equal
    panels.
    """
    present = list(panel.data)
    digest = hashlib.sha256()
    with open(path, "wb") as fh:

        def write(chunk):
            digest.update(chunk)
            fh.write(chunk)

        write((",".join(present) + "\r\n").encode("ascii"))
        for start in range(0, len(panel), _WRITE_BLOCK_ROWS):
            block = [panel.data[c][start : start + _WRITE_BLOCK_ROWS] for c in present]
            lines = [b"", b",", b"", b"\r\n"] * len(block[0])  # int fields, comma, float fields, CRLF
            lines[0::4], lines[2::4] = _format_rows(np.column_stack(block[:2])), _format_rows(np.column_stack(block[2:]))
            write(b"".join(lines))
    rows = np.empty(len(panel), _row_dtype(present))
    for c in present:
        rows[c] = panel.data[c]
    with open(_cache_path(path), "wb") as fh:
        fh.write(digest.digest())
        np.lib.format.write_array(fh, rows, version=(1, 0), allow_pickle=False)


def _cached_rows(path, digest: bytes, dtype: np.dtype) -> Optional[np.ndarray]:
    """The rows cached beside `path` if they were cached from a CSV of this digest and dtype, else None.

    The array is checked against the cache's length before it is read, so a
    cache whose header claims more rows than it holds is passed over too.
    """
    try:
        blob = _cache_path(path).read_bytes()
    except OSError:
        return None
    fh = io.BytesIO(blob)
    if fh.read(len(digest)) != digest:
        return None
    try:
        if np.lib.format.read_magic(fh) != (1, 0):
            return None
        shape, fortran_order, cached = np.lib.format.read_array_header_1_0(fh)
    except ValueError:
        return None
    if cached != dtype or fortran_order or len(shape) != 1 or len(blob) - fh.tell() != shape[0] * dtype.itemsize:
        return None
    return np.frombuffer(blob, dtype, count=shape[0], offset=fh.tell())


def read_panel_csv(path) -> Panel:
    """Read a panel CSV: from its column cache when the cache matches, else by parsing.

    The file is UTF-8, a leading byte-order mark (as spreadsheet programs write
    it) dropped.  The header's names are checked either way.  The columns come
    from the cache beside the file when the cache's digest is the SHA-256 of
    the file's bytes and its dtype matches the header; a missing, stale,
    truncated or unreadable cache is ignored.  Otherwise np.loadtxt parses the
    body; if it fails or finds no rows, the csv loop rereads it to name the bad
    line.  Both ways give the same columns bit for bit, and the Panel
    validates them, required columns included.
    """
    content = Path(path).read_bytes()
    digest = hashlib.sha256(content).digest()
    try:
        with io.TextIOWrapper(io.BytesIO(content), encoding="utf-8-sig", newline="") as fh:
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
            dtype = _row_dtype(header)
            rows = _cached_rows(path, digest, dtype)
            logger.debug("%s: columns %s", path, "parsed" if rows is None else "read from the cache beside it")
            try:
                if rows is None:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")  # loadtxt only warns on a body without rows
                        rows = np.loadtxt(fh, dtype, delimiter=",", comments=None, ndmin=1)
            except (ValueError, UserWarning):
                fh.seek(0)
                next(reader)
                parsed = []
                for lineno, rowvals in enumerate(reader, start=2):
                    if not rowvals:
                        continue
                    if len(rowvals) != len(header):
                        raise PanelFormatError(
                            f"{path}: line {lineno}: expected {len(header)} fields, got {len(rowvals)}"
                        )
                    row = []
                    for c, v in zip(header, rowvals):
                        try:
                            row.append(int(v) if c in _INT_COLUMNS else float(v))
                        except ValueError:
                            raise PanelFormatError(f"{path}: line {lineno}: field {c}={v!r} is not numeric")
                        if c in _INT_COLUMNS and not -(2**63) <= row[-1] < 2**63:
                            raise PanelFormatError(f"{path}: line {lineno}: field {c}={v!r} is outside the int64 range")
                    parsed.append(tuple(row))
                rows = np.array(parsed, dtype)
    except UnicodeDecodeError as exc:  # its position is in the chunk that was decoded, not in the file
        raise PanelFormatError(f"{path}: not UTF-8: {exc.reason} {exc.object[exc.start:exc.end]!r}") from exc
    try:
        return Panel(data={c: rows[c] for c in header})
    except PanelFormatError as exc:
        raise PanelFormatError(f"{path}: {exc}") from exc

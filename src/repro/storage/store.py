"""Simulated stable storage for stream data.

Rows live in memory, keyed by stream GUID.  The executor reads rows for a
:class:`~repro.plan.logical.Scan` through this store; materialized views
write their rows here too (under their view path), so reuse reads exactly
what the producing job wrote.

Each blob is a :class:`StoredRows` that keeps its byte size
(:func:`row_bytes`, computed once at ``put``), so reads are accounted
without re-walking the rows.  Per-column byte totals, from which a
projecting scan's output size follows, are computed on the first
projected scan and kept with the blob as well.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import StorageError
from repro.common.sync import RANK_STORAGE, TrackedLock
from repro.plan.expressions import Row

#: Width of a value that is neither a string nor a boolean (numbers,
#: NULLs, dates): also what a column missing from a row reads as.
FIXED_WIDTH = 8


def row_bytes(rows: Sequence[Row]) -> int:
    """Exact byte size of a row list: per-value widths, summed.

    The width rule (strings are their character count, at least one byte;
    booleans one byte; everything else -- numbers, NULLs, dates -- eight
    bytes) is shared with the SQL-side accounting in
    :mod:`repro.backends.sqlite`, and the sum is *row-order invariant*:
    two backends that produce the same multiset of rows report the same
    byte count, which keeps per-node statistics, selection inputs, and the
    view-catalog digest backend-independent.
    """
    total = 0
    for row in rows:
        total += _values_bytes(row.values())
    return total


def _values_bytes(values: Iterable[object]) -> int:
    """The width rule of :func:`row_bytes` over a run of values."""
    total = 0
    for value in values:
        kind = type(value)
        if kind is str:
            total += len(value) or 1
        elif kind is bool:
            total += 1
        elif isinstance(value, str):
            total += len(value) or 1
        else:
            total += FIXED_WIDTH
    return total


class StoredRows(list):
    """The rows stored under one key, as :meth:`DataStore.get` returns
    them, with their byte size.  A scan sizes its output from the object
    it read, so the rows and their size always come from the same blob.
    """

    __slots__ = ("size", "_column_totals")

    def __init__(self, rows: Iterable[Row], size: int = 0) -> None:
        super().__init__(rows)
        #: :func:`row_bytes` of the rows.
        self.size = size or row_bytes(self)
        self._column_totals: Optional[Dict[str, Tuple[int, int]]] = None

    def projected_bytes(self, columns: Sequence[str]) -> int:
        """Byte size of these rows projected onto ``columns`` (a column
        missing from a row reads as NULL)."""
        totals = self._column_totals
        if totals is None:
            # Deterministic, so two racing first scans store equal totals.
            totals = self._column_totals = _column_totals(self)
        count = len(self)
        size = 0
        for column in dict.fromkeys(columns):
            width, present = totals.get(column, (0, 0))
            size += width + FIXED_WIDTH * (count - present)
        return size


def _column_totals(rows: List[Row]) -> Dict[str, Tuple[int, int]]:
    """Per column, ``(byte total, rows holding the column)``, summed one
    column at a time so that no copy of the values is held."""
    counts: Dict[str, int] = {}
    for row in rows:
        for column in row:
            counts[column] = counts.get(column, 0) + 1
    return {column: (_values_bytes(row[column] for row in rows
                                   if column in row), count)
            for column, count in counts.items()}


class DataStore:
    """In-memory blob store: GUID/path -> list of rows.

    Concurrently executing jobs write distinct view paths and read shared
    stream GUIDs; a lock keeps the blob map and the byte counters exact
    under that parallelism.
    """

    def __init__(self) -> None:
        self._blobs: Dict[str, StoredRows] = {}
        self._mutex = TrackedLock("storage.data", RANK_STORAGE)
        self.bytes_written = 0
        self.bytes_read = 0

    def put(self, key: str, rows: List[Row], size: int = 0) -> None:
        """Store ``rows`` under ``key`` (overwrites: streams are immutable
        per GUID, so an overwrite only happens when re-materializing the
        same view path).  ``size``, when the caller already knows it, must
        be the rows' :func:`row_bytes`."""
        blob = StoredRows(rows, size)
        with self._mutex:
            self._blobs[key] = blob
            self.bytes_written += blob.size

    def get(self, key: str) -> StoredRows:
        with self._mutex:
            try:
                blob = self._blobs[key]
            except KeyError:
                raise StorageError(
                    f"no data stored under key {key!r}") from None
            self.bytes_read += blob.size
            return blob

    def has(self, key: str) -> bool:
        with self._mutex:
            return key in self._blobs

    def delete(self, key: str) -> None:
        with self._mutex:
            self._blobs.pop(key, None)

    def keys(self) -> List[str]:
        with self._mutex:
            return sorted(self._blobs)


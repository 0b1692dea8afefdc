"""Reading and writing the delimited record-file format.

Rows are `record_id,service_id,board_stop,alight_stop,board_time,alight_time,
distance_m` with a mandatory header. Times are epoch seconds or ISO-8601 with
a UTC offset, within years 1-9999 UTC; distances are meters, no longer than
the Earth's equator. Malformed rows, including non-finite times or distances,
bytes that are not UTF-8 and fields past the csv module's size limit, are
skipped and reported with their line numbers, never silently dropped.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import count
from typing import IO, Iterable, Sequence

from .core import FlowRecord, NodeId, check_record
from .errors import AllRowsRejected, UnreadableInput

RECORD_HEADER = (
    "record_id",
    "service_id",
    "board_stop",
    "alight_stop",
    "board_time",
    "alight_time",
    "distance_m",
)


@dataclass(frozen=True)
class RejectedRow:
    line_no: int
    reason: str


# 0001-01-01T00:00Z and 10000-01-01T00:00Z, the bounds of a UTC datetime.
_EPOCH_MIN = datetime(1, 1, 1, tzinfo=timezone.utc).timestamp()
_EPOCH_MAX = datetime(9999, 12, 31, tzinfo=timezone.utc).timestamp() + 86400.0

# No record between two points on Earth is longer than its equator; a longer
# finite distance (such as 1e308) is a typo that would contradict every other
# record of its stop pair and so reject the whole service in route inference.
EARTH_EQUATOR_M = 40_075_017.0


def parse_timestamp(text: str) -> float:
    """Epoch seconds from a float literal or an offset-carrying ISO-8601 string."""
    token = text.strip()
    try:  # float() never accepts a colon, so ISO times skip its raised ValueError
        value = float(token) if ":" not in token else None
    except ValueError:
        value = None
    if value is None:
        if token.endswith(("Z", "z")):
            token = token[:-1] + "+00:00"
        try:
            stamp = datetime.fromisoformat(token)
        except ValueError as exc:
            raise ValueError(f"unparseable time {text!r}") from exc
        if stamp.tzinfo is None:
            raise ValueError(f"time {text!r} has no UTC offset")
        value = stamp.timestamp()
    if not math.isfinite(value):
        raise ValueError(f"time {text!r} is not finite")
    if not _EPOCH_MIN <= value < _EPOCH_MAX:
        raise ValueError(f"time {text!r} is outside years 1-9999 UTC")
    return value


def _check_token(name: str, value: str) -> str:
    words = value.split()  # splits at exactly the characters strip() and isspace() see
    if len(words) == 1 and "," not in value:
        return words[0]
    if not words:
        raise ValueError(f"{name} is empty")
    raise ValueError(f"{name} {value!r} contains whitespace or a comma")


def _parse_distance(text: str) -> float:
    distance = float(text)
    if not math.isfinite(distance):
        raise ValueError(f"distance {text!r} is not finite")
    if distance > EARTH_EQUATOR_M:
        raise ValueError(f"distance {text!r} is longer than the Earth's equator")
    return distance


def _parse_row(row: Sequence[str]) -> tuple[str, str, NodeId, NodeId, float, float, float]:
    """A row's checked fields, in FlowRecord order; its first fault raises ValueError."""
    if len(row) != len(RECORD_HEADER):
        raise ValueError(f"expected {len(RECORD_HEADER)} fields, got {len(row)}")
    record_id, service_id, board, alight, t_start, t_end, distance = row
    record_id = _check_token("record_id", record_id)
    service_id = _check_token("service_id", service_id)
    origin = _check_token("board_stop", board)
    destination = _check_token("alight_stop", alight)
    t0, t1, d = parse_timestamp(t_start), parse_timestamp(t_end), _parse_distance(distance)
    check_record(record_id, origin, destination, t0, t1, d)
    return record_id, service_id, origin, destination, t0, t1, d


def _check_utf8(row: Sequence[str]) -> None:
    """Reject a row holding bytes that the UTF-8 decoder escaped as lone surrogates."""
    for name, value in zip(RECORD_HEADER, row):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{name} is not valid UTF-8") from None


@dataclass
class RecordTable:
    """Parsed rows as columns, so that no FlowRecord is built per row.

    Row i has record_ids[i], keys[key_of[i]] as its (service_id, origin,
    destination), t_start[i], t_end[i] and distance[i]. Each distinct key is
    stored once, in order of first appearance, so network checks run per key.
    """

    record_ids: list[str] = field(default_factory=list)
    keys: list[tuple[str, NodeId, NodeId]] = field(default_factory=list)
    key_of: list[int] = field(default_factory=list)
    t_start: array = field(default_factory=lambda: array("d"))
    t_end: array = field(default_factory=lambda: array("d"))
    distance: array = field(default_factory=lambda: array("d"))

    def __len__(self) -> int:
        return len(self.record_ids)

    def records(self) -> list[FlowRecord]:
        keys = self.keys
        return [
            FlowRecord(record_id, *keys[k], t0, t1, d)
            for record_id, k, t0, t1, d in zip(
                self.record_ids, self.key_of, self.t_start, self.t_end, self.distance
            )
        ]


def read_table(source: str | IO[str]) -> tuple[RecordTable, list[RejectedRow]]:
    """Parse a record file or stream into columns; invalid rows land in the reject list.

    Rows are numbered from 2 (the header is line 1), one number per row read.
    """
    if isinstance(source, str):
        try:  # an undecodable byte becomes a lone surrogate that rejects its row only
            fh: IO[str] = open(source, "r", encoding="utf-8", errors="surrogateescape", newline="")
        except OSError as exc:
            raise UnreadableInput(f"cannot open {source!r}: {exc}") from exc
        close = True
    else:
        fh = source
        close = False
    try:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise UnreadableInput("input has no header row")
        except csv.Error as exc:
            raise UnreadableInput(f"bad header: {exc}") from exc
        if tuple(h.strip() for h in header) != RECORD_HEADER:
            raise UnreadableInput(
                f"bad header {header!r}; expected {','.join(RECORD_HEADER)}"
            )
        table = RecordTable()
        record_ids, key_of = table.record_ids, table.key_of
        t_start, t_end, distance = table.t_start, table.t_end, table.distance
        key_index: dict[tuple[str, NodeId, NodeId], int] = {}
        rejects: list[RejectedRow] = []
        n_rows = 0
        for line_no in count(2):
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:  # such as an oversized field; the next row reads fine
                n_rows += 1
                rejects.append(RejectedRow(line_no=line_no, reason=str(exc)))
                continue
            if not row:
                continue
            n_rows += 1
            try:
                if not "".join(row).isascii():  # a flag check on CPython: ASCII rows skip the scan
                    _check_utf8(row)
                record_id, service_id, origin, destination, t0, t1, d = _parse_row(row)
            except ValueError as exc:
                rejects.append(RejectedRow(line_no=line_no, reason=str(exc)))
                continue
            record_ids.append(record_id)
            key_of.append(key_index.setdefault((service_id, origin, destination), len(key_index)))
            t_start.append(t0)
            t_end.append(t1)
            distance.append(d)
        if n_rows and not record_ids:
            raise AllRowsRejected(n_rows)
        table.keys.extend(key_index)
        return table, rejects
    finally:
        if close:
            fh.close()


def parse_records(source: str | IO[str]) -> tuple[list[FlowRecord], list[RejectedRow]]:
    """Parse a record file or stream; invalid rows land in the reject list."""
    table, rejects = read_table(source)
    return table.records(), rejects


def format_float(x: float) -> str:
    """17 significant digits: float(format_float(x)) == x for every finite x."""
    return format(x, ".17g")


def write_lines(dest: str | IO[str], lines: Iterable[str]) -> None:
    """Write each line plus a newline to a path (UTF-8) or an open text stream.

    Lines go out one at a time, so no second copy of the whole file is built.
    """
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8", newline="\n") as fh:
            write_lines(fh, lines)
    else:
        for line in lines:
            dest.write(line + "\n")


def write_records(records: Iterable[FlowRecord], dest: str | IO[str]) -> None:
    """Write records in the same format parse_records reads, bit-exact floats."""
    lines = [",".join(RECORD_HEADER)]
    for r in records:
        lines.append(
            f"{r.record_id},{r.service_id},{r.origin},{r.destination},"
            f"{format_float(r.t_start)},{format_float(r.t_end)},"
            f"{format_float(r.distance_m)}"
        )
    write_lines(dest, lines)

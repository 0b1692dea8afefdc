"""The pipeline's file formats: records, routes, route rejects, scored, report and daily.

Record rows are `record_id,service_id,board_stop,alight_stop,board_time,
alight_time,distance_m` with a mandatory header. Times are epoch seconds or
ISO-8601 with a UTC offset, within years 1-9999 UTC; distances are meters, no
longer than the Earth's equator. Malformed rows, including non-finite times or
distances, bytes that are not UTF-8 and fields past the csv module's size limit,
are skipped and reported with their line numbers, never silently dropped.

The routes, route-reject, scored, report and daily files that infer-routes,
detect and localize write are here too, each header named after its file; the
model file lives in models and the truth sidecar in synth. This module imports
neither models nor anomaly, since models imports it: readers return plain fields.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain, count
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .core import FlowRecord, NodeId, ServiceRoute, check_record
from .errors import AllRowsRejected, UnreadableInput

if TYPE_CHECKING:
    from .anomaly import AnomalyReport, DailyStats

RECORD_HEADER = (
    "record_id",
    "service_id",
    "board_stop",
    "alight_stop",
    "board_time",
    "alight_time",
    "distance_m",
)
ROUTES_HEADER = "service_id,seq,stop,cumulative_m"
SCORED_HEADER = (
    "record_id,service_id,origin,destination,t_start,t_end,"
    "observed_s,expected_s,alpha,significant"
)
REPORT_HEADER = (
    "rank,record_id,alpha,count,origin,destination,t_start,t_end,"
    "observed_s,expected_s,segments,window_start,window_end,provenance"
)
DAILY_HEADER = "date,mean_count,median_count,mean_alpha,median_alpha"


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


def read_lines(source: str | IO[str]) -> list[str]:
    """The lines of a UTF-8 file (by path) or of an open text stream, without line ends."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    return source.read().splitlines()


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
    """Write records in the same format parse_records reads, bit-exact floats.

    Each record is formatted as it is written, so an iterator of records is
    never held whole.
    """
    f = format_float
    lines = (
        f"{r.record_id},{r.service_id},{r.origin},{r.destination},"
        f"{f(r.t_start)},{f(r.t_end)},{f(r.distance_m)}"
        for r in records
    )
    write_lines(dest, chain([",".join(RECORD_HEADER)], lines))


def write_routes(routes: Iterable[ServiceRoute], dest: str | IO[str]) -> None:
    """One row per stop of each route (services in id order), as read_routes reads them."""
    lines = [ROUTES_HEADER]
    for route in sorted(routes, key=lambda r: r.service_id):
        for seq, (stop, cum) in enumerate(zip(route.stops, route.cumulative_m)):
            lines.append(f"{route.service_id},{seq},{stop},{format_float(cum)}")
    write_lines(dest, lines)


def read_routes(path: str) -> list[ServiceRoute]:
    """The routes of a routes file in service-id order, each one's stops in seq order.

    Each service's seq must run 0, 1, 2, ... with no gap or repeat, as
    write_routes writes it; otherwise a ValueError names the service.
    """
    lines = read_lines(path)
    if not lines or lines[0] != ROUTES_HEADER:
        raise ValueError(f"bad routes header in {path!r}")
    acc: dict[str, list[tuple[int, str, float]]] = {}
    for ln in lines[1:]:
        if not ln.strip():
            continue
        service_id, seq, stop, cum = ln.split(",")
        acc.setdefault(service_id, []).append((int(seq), stop, float(cum)))
    routes = []
    for service_id in sorted(acc):
        rows = sorted(acc[service_id])
        if [seq for seq, _, _ in rows] != list(range(len(rows))):
            raise ValueError(f"service {service_id!r} in {path!r}: seq must run 0, 1, 2, ... "
                             "with no gap or repeat")
        routes.append(
            ServiceRoute(
                service_id,
                tuple(stop for _, stop, _ in rows),
                tuple(cum for _, _, cum in rows),
            )
        )
    return routes


def write_route_rejects(rejected: Mapping[str, str], dest: str) -> None:
    """service_id,reason rows in service-id order; csv quotes a reason that holds a comma."""
    with open(dest, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["service_id", "reason"])
        for service_id in sorted(rejected):
            writer.writerow([service_id, rejected[service_id]])


def write_scored(table: RecordTable, rows: Sequence[int], observed: Iterable[float],
                 expected: Iterable[float], alphas: Iterable[float], delta: float,
                 dest: str | IO[str]) -> None:
    """The scored table rows, in order, with their times and ratios, flagged when alpha > delta.

    The flag is per row, since two rows may share a record id.
    """
    f = format_float
    keys = [",".join(key) for key in table.keys]
    lines = [f"# delta={f(delta)}", SCORED_HEADER]
    for i, t, expect, alpha in zip(rows, observed, expected, alphas):
        lines.append(
            f"{table.record_ids[i]},{keys[table.key_of[i]]},"
            f"{f(table.t_start[i])},{f(table.t_end[i])},{f(t)},"
            f"{f(expect)},{f(alpha)},{1 if alpha > delta else 0}"
        )
    write_lines(dest, lines)


def read_significant(
    path: str,
) -> Iterator[tuple[str, str, NodeId, NodeId, float, float, float, float]]:
    """The significant rows of a scored file, as (record_id, service_id, origin,
    destination, t_start, t_end, expected_s, alpha).

    The file is read a line at a time, and only rows flagged significant are split
    and converted, so memory follows the significant set, not the file. Lines end
    where read_lines ends them (str.splitlines of each line read); blank lines and
    `#` comments are skipped, and the first other line must be the header. Every
    row must have 10 fields: a row without raises ValueError when the iteration
    reaches it, after the rows before it. Bytes that are not UTF-8 raise
    UnicodeDecodeError, a ValueError, when the block of the file that holds them
    is read. The file is closed when the iteration ends, fails or is closed.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = (ln for physical in fh for ln in physical.splitlines()
                 if ln and not ln.startswith("#"))
        if next(lines, None) != SCORED_HEADER:
            raise ValueError(f"bad scored-file header in {path!r}")
        for ln in lines:
            if ln.count(",") != 9:
                raise ValueError(f"bad scored row: {ln!r}")
            if ln.endswith(",1"):  # the last of its 10 fields is "1"
                parts = ln.split(",")
                yield (*parts[:4], float(parts[4]), float(parts[5]), float(parts[7]),
                       float(parts[8]))


def write_report(reports: Sequence[AnomalyReport], dest: str | IO[str]) -> None:
    """One row per report and window, its segments `|from>to@length|...|` in first-seen order."""
    f = format_float
    lines = [REPORT_HEADER]
    labels: dict[tuple[NodeId, NodeId, float], str] = {}  # by fields: skips Segment.__hash__
    windows: dict[tuple[float, float], str] = {}
    for rank, rep in enumerate(reports, start=1):
        s, r = rep.scored, rep.scored.record
        head = (
            f"{rank},{r.record_id},{f(s.alpha)},{rep.containment_count},"
            f"{r.origin},{r.destination},{f(r.t_start)},{f(r.t_end)},"
            f"{f(r.observed_s)},{f(s.expected_s)},|"
        )
        grouped: dict[tuple[float, float], list[str]] = {}  # windows in first-seen order
        for seg, w0, w1 in rep.congested_segments:
            label_key = (seg.from_node, seg.to_node, seg.distance_m)
            label = labels.get(label_key)
            if label is None:
                label = labels[label_key] = f"{seg.from_node}>{seg.to_node}@{f(seg.distance_m)}"
            grouped.setdefault((w0, w1), []).append(label)
        for key, segs in grouped.items():
            window = windows.get(key)
            if window is None:
                window = f"{f(key[0])},{f(key[1])}"
                if key[0] and key[1]:  # -0.0 == 0.0 as a key but formats as -0
                    windows[key] = window
            lines.append(f"{head}{'|'.join(segs)}|,{window},{rep.provenance}")
    write_lines(dest, lines)


def write_daily(daily: Iterable[DailyStats], dest: str | IO[str]) -> None:
    """One row per date with the mean and median containment count and ratio."""
    f = format_float
    lines = [DAILY_HEADER]
    for row in daily:
        lines.append(
            f"{row.date},{f(row.mean_count)},{f(row.median_count)},"
            f"{f(row.mean_alpha)},{f(row.median_alpha)}"
        )
    write_lines(dest, lines)

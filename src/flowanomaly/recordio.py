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
import io
import marshal
import math
import os
import signal
import sys
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import count, islice
from operator import attrgetter
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


def _check_header(reader: Iterator[list[str]]) -> None:
    try:
        header = next(reader)
    except StopIteration:
        raise UnreadableInput("input has no header row")
    except csv.Error as exc:
        raise UnreadableInput(f"bad header: {exc}") from exc
    if tuple(h.strip() for h in header) != RECORD_HEADER:
        raise UnreadableInput(f"bad header {header!r}; expected {','.join(RECORD_HEADER)}")


def _read_rows(reader: Iterator[list[str]], first_line: int
               ) -> tuple[RecordTable, list[RejectedRow], int, int]:
    """The rows left in a csv reader, numbered from first_line, one number per row
    read: the table, the rejects, the rows read and the rows read that are not blank."""
    table = RecordTable()
    record_ids, key_of = table.record_ids, table.key_of
    t_start, t_end, distance = table.t_start, table.t_end, table.distance
    key_index: dict[tuple[str, NodeId, NodeId], int] = {}
    rejects: list[RejectedRow] = []
    n_rows = 0
    for line_no in count(first_line):
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
    table.keys.extend(key_index)
    return table, rejects, line_no - first_line, n_rows


def read_table(source: str | IO[str]) -> tuple[RecordTable, list[RejectedRow]]:
    """Parse a record file or stream into columns; invalid rows land in the reject list.

    Rows are numbered from 2 (the header is line 1), one number per row read.
    A file is parsed by _read_ranges: a large one in line-aligned byte ranges,
    one per CPU (see _split_points), any other one, a pipe included, as a single
    range in this process; the table and rejects are those of the stream parse.
    """
    if isinstance(source, str):
        return _read_ranges(source, _split_points(source) or (0, None))
    reader = csv.reader(source)
    _check_header(reader)
    table, rejects, _, n_rows = _read_rows(reader, 2)
    if n_rows and not table:
        raise AllRowsRejected(n_rows)
    return table, rejects


# The fewest bytes per range, just above the measured crossover: in a fresh
# process with the CLI's modules loaded, a 256 KB file of ISO-time records parses
# in 12.3 ms as one range and 12.2 ms as two (the fork, the transfer and the merge
# eat the gain), a 512 KB one in 23.8 ms against 18.4 ms (min of 9 runs each, on a
# shared 2-vCPU x86-64 host).
_RANGE_MIN_BYTES = 256 * 1024


def _split_points(path: str) -> list[int] | None:
    r"""Offsets that cut a record file into ranges, each but the last ending just
    after a `\n`, from 0 to the file's size; None for one range.

    The ranges number min(usable CPUs, size // _RANGE_MIN_BYTES); cut k is just
    after the first `\n` at or past size * k / n, so no cut splits a `\r\n` or a
    UTF-8 sequence. A file holding a `"` byte is one range, since a quoted field
    can carry a row across a newline, and so is every file where forking is
    unavailable or unsafe: no os.fork or os.sched_getaffinity, or more than one
    thread in the process.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return None
    try:
        size = os.path.getsize(path)
        n = min(len(os.sched_getaffinity(0)), size // _RANGE_MIN_BYTES)
        if n < 2 or len(os.listdir("/proc/self/task")) > 1:
            return None
        with open(path, "rb") as fh:
            while block := fh.read(1 << 20):
                if b'"' in block:
                    return None
            bounds = [0]
            for k in range(1, n):
                fh.seek(size * k // n)
                fh.readline()
                bounds.append(fh.tell())
    except OSError:  # read_table then opens the file and says what is wrong
        return None
    bounds = list(dict.fromkeys(bounds + [size]))  # a cut that found no `\n` is the end
    return bounds if len(bounds) > 2 else None


class _ByteRange(io.RawIOBase):
    """Bytes [start, end) of a binary file, or all from start when end is None, as
    a stream that ends at end, so a range is decoded a block at a time and never
    held whole."""

    def __init__(self, fh: IO[bytes], start: int, end: int | None):
        if start:  # a file of one range may be a pipe, which cannot seek
            fh.seek(start)
        self._fh, self._left = fh, sys.maxsize if end is None else end - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._fh.readinto(memoryview(buffer)[:self._left])
        self._left -= n
        return n


def _parse_range(path: str, start: int, end: int | None
                 ) -> tuple[RecordTable, list[RejectedRow], int, int]:
    """_read_rows of the rows in bytes [start, end) of a record file; from 0 its
    header is checked and its rows numbered from 2, as in the file, and the rows
    of a later range are numbered from 0."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise UnreadableInput(f"cannot open {path!r}: {exc}") from exc
    with fh, io.TextIOWrapper(io.BufferedReader(_ByteRange(fh, start, end)), encoding="utf-8",
                              errors="surrogateescape", newline="") as text:
        reader = csv.reader(text)
        if not start:
            _check_header(reader)
        return _read_rows(reader, 0 if start else 2)


def _messages(table: RecordTable, rejects: list[RejectedRow], n_read: int, n_rows: int
              ) -> Iterator[bytes]:
    """A parsed range as the messages its worker sends, one per column: the record
    ids and the keys, marshalled; key_of, t_start, t_end and distance as array
    bytes; then the rejects as (line, reason) pairs and the two counts, marshalled."""
    yield marshal.dumps(table.record_ids)
    yield marshal.dumps(table.keys)
    yield array("q", table.key_of).tobytes()
    for column in (table.t_start, table.t_end, table.distance):
        yield column.tobytes()
    yield marshal.dumps(([(rej.line_no, rej.reason) for rej in rejects], n_read, n_rows))


def _fork_range(path: str, start: int, end: int) -> tuple[int, IO[bytes]]:
    """Fork a worker that writes the range's _messages, each length first, to a
    pipe; return the worker's pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, "rb")
    code = 1
    try:  # so the worker runs no caller's finally or atexit, and flushes no inherited buffer
        os.close(read_fd)
        with open(write_fd, "wb") as out:
            for message in _messages(*_parse_range(path, start, end)):
                out.write(len(message).to_bytes(8, "little"))
                out.write(message)
        code = 0
    finally:
        os._exit(code)


def _message(fh: IO[bytes]) -> bytes:
    """The next message from a worker's pipe; EOFError if it is shorter than announced."""
    head = fh.read(8)
    if len(head) < 8:
        raise EOFError
    size = int.from_bytes(head, "little")
    message = fh.read(size)
    if len(message) < size:
        raise EOFError
    return message


def _extend(table: RecordTable, fh: IO[bytes]) -> None:
    """Append the record ids, keys, key_of, t_start, t_end and distance that a
    worker sends through fh to table, each column read and decoded only once the
    one before it is appended, so only one is in transit. Keys new to the table
    join it in first-seen order, and key_of is renumbered to match."""
    key_index = {key: k for k, key in enumerate(table.keys)}
    table.record_ids.extend(marshal.loads(_message(fh)))
    renumber = [key_index.setdefault(key, len(key_index)) for key in marshal.loads(_message(fh))]
    table.keys.extend(islice(key_index, len(table.keys), None))
    table.key_of.extend(map(renumber.__getitem__, array("q", _message(fh))))
    for column in (table.t_start, table.t_end, table.distance):
        column.extend(array("d", _message(fh)))


def _read_ranges(path: str, bounds: Sequence[int | None]
                 ) -> tuple[RecordTable, list[RejectedRow]]:
    """read_table of a record file cut at bounds: the first range is parsed here
    and each other one in a forked worker, then all are merged in file order.

    Keys are renumbered by first appearance and each reject's line offset by the
    rows that the ranges before it read, so the result is the one-process parse's.
    If any worker cannot start, dies or sends less than it announced, the whole
    file is parsed here instead. Every worker is killed and reaped before this
    returns or raises; one that has sent its range has nothing left to do.
    """
    ranges = list(zip(bounds, bounds[1:]))
    workers: list[tuple[int, IO[bytes]]] = []
    try:
        for start, end in ranges[1:]:
            workers.append(_fork_range(path, start, end))
        table, rejects, n_read, n_rows = _parse_range(path, *ranges[0])
        first_line = 2 + n_read  # the line number of the next range's first row
        for _, fh in workers:
            _extend(table, fh)
            part_rejects, n_read, n = marshal.loads(_message(fh))
            rejects.extend(RejectedRow(first_line + line_no, reason)
                           for line_no, reason in part_rejects)
            first_line += n_read
            n_rows += n
    except (OSError, EOFError):  # no pipe or no process left, or a worker died
        table = None
    finally:
        for pid, fh in workers:
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if table is None:
        table, rejects, _, n_rows = _parse_range(path, 0, None)
    if n_rows and not table:
        raise AllRowsRejected(n_rows)
    return table, rejects


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
    _write_text(dest, (line + "\n" for line in lines))


def _write_text(dest: str | IO[str], chunks: Iterable[str]) -> None:
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8", newline="\n") as fh:
            _write_text(fh, chunks)
    else:
        for chunk in chunks:
            dest.write(chunk)


# One record row; %.17g writes the bytes format_float writes.
_RECORD_ROW = "%s,%s,%s,%s,%.17g,%.17g,%.17g\n"
# Rows joined per write. On a 200k-record simulated day, 4096-row blocks raised
# simulate's peak RSS by 2 MB against 0.1 MB for 256, and wrote no faster.
_RECORD_BLOCK = 256
_RECORD_FIELDS = attrgetter("record_id", "service_id", "origin", "destination", "t_start",
                            "t_end", "distance_m")


def write_records(records: Iterable[FlowRecord], dest: str | IO[str]) -> None:
    """Write records in the same format parse_records reads, bit-exact floats."""
    write_record_rows(map(_RECORD_FIELDS, records), dest)


def write_record_rows(rows: Iterable[tuple[str, str, NodeId, NodeId, float, float, float]],
                      dest: str | IO[str]) -> None:
    """write_records of tuples of FlowRecord's fields, in its order, as
    synth.RecordStream.rows() draws them.

    Rows are formatted and written a block at a time, so an iterator of rows is
    never held whole.
    """
    def blocks() -> Iterator[str]:
        yield ",".join(RECORD_HEADER) + "\n"
        left = iter(rows)
        while block := [_RECORD_ROW % row for row in islice(left, _RECORD_BLOCK)]:
            yield "".join(block)

    _write_text(dest, blocks())


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


# One scored row; %.17g writes the bytes format_float writes.
_SCORED_ROW = "%s,%s,%.17g,%.17g,%.17g,%s,%.17g,%d\n"
_SCORED_BLOCK = 4096  # rows joined per write


def write_scored(table: RecordTable, rows: Sequence[int], observed: Iterable[float],
                 expected: Iterable[float], alphas: Iterable[float], delta: float,
                 dest: str | IO[str]) -> None:
    """The scored table rows, in order, with their times and ratios, flagged when alpha > delta.

    The flag is per row, since two rows may share a record id. Rows are
    formatted and written a block at a time, so the file is never held whole.
    """
    keys = [",".join(key) for key in table.keys]
    record_ids, key_of, t_start, t_end = table.record_ids, table.key_of, table.t_start, table.t_end
    texts: dict[float, str] = {}  # an edge model has one expected time per distinct path

    def text(x: float) -> str:
        s = "%.17g" % x
        if x and not math.isnan(x):  # -0.0 == 0.0 as a key but formats as -0; nan != nan
            texts[x] = s
        return s

    def blocks() -> Iterator[str]:
        yield f"# delta={format_float(delta)}\n{SCORED_HEADER}\n"
        scored = zip(rows, observed, expected, alphas)
        while block := [
            _SCORED_ROW % (record_ids[i], keys[key_of[i]], t_start[i], t_end[i], t,
                           texts.get(expect) or text(expect), alpha, alpha > delta)
            for i, t, expect, alpha in islice(scored, _SCORED_BLOCK)
        ]:
            yield "".join(block)

    _write_text(dest, blocks())


def read_significant(
    path: str,
) -> Iterator[tuple[str, str, NodeId, NodeId, float, float, float, float]]:
    """The significant rows of a scored file, as (record_id, service_id, origin,
    destination, t_start, t_end, expected_s, alpha).

    The file is read a line at a time, and only rows flagged significant are split
    and converted, so memory follows the significant set, not the file. Lines end
    where read_lines ends them (str.splitlines of each line read); blank lines and
    `#` comments are skipped, and the first other line must be the header. Every
    row must have 10 fields, and a significant one must pass significant_row: a
    row that does not raises ValueError when the iteration reaches it, after the
    rows before it. Bytes that are not UTF-8 raise
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
                yield significant_row(ln)


def significant_row(ln: str) -> tuple[str, str, NodeId, NodeId, float, float, float, float]:
    """A flagged scored line's fields; ValueError names a line whose times fail
    parse_timestamp or whose expected_s or alpha is not finite."""
    parts = ln.split(",")
    try:
        t0, t1 = parse_timestamp(parts[4]), parse_timestamp(parts[5])
        expected_s, alpha = float(parts[7]), float(parts[8])
        if not (math.isfinite(expected_s) and math.isfinite(alpha)):
            raise ValueError("expected_s and alpha must be finite")
    except ValueError as exc:
        raise ValueError(f"bad scored row: {ln!r}: {exc}") from None
    return (*parts[:4], t0, t1, expected_s, alpha)


def write_report(reports: Sequence[AnomalyReport], dest: str | IO[str]) -> None:
    """One row per report and window, its segments `|from>to@length|...|` in first-seen order."""
    f = format_float
    lines = [REPORT_HEADER]
    labels: dict[tuple[NodeId, NodeId, float], str] = {}  # by fields: skips Segment.__hash__
    windows: dict[tuple[float, float], str] = {}
    for rank, rep in enumerate(reports, start=1):
        nodes = rep.path.nodes
        head = (
            f"{rank},{rep.record_id},{f(rep.alpha)},{rep.containment_count},"
            f"{nodes[0]},{nodes[-1]},{f(rep.t_start)},{f(rep.t_end)},"
            f"{f(rep.t_end - rep.t_start)},{f(rep.expected_s)},|"
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

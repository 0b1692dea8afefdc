"""The record parser and the evidence collector against reference copies.

The references below are the straightforward versions of `_check_token`,
`parse_timestamp`, the row parser and `collect_evidence`: a per-character
whitespace scan, a `float()` attempt before every ISO parse, and one frozen
`DistanceEvidence` rebuilt per record. The library versions avoid that work;
these tests require the same records, bit for bit, the same reject line
numbers and reasons, and the same evidence and flags.
"""

import csv
import io
import math
import random
from dataclasses import astuple
from datetime import datetime, timedelta, timezone
from unittest import mock

from hypothesis import given, settings, strategies as st

from flowanomaly import recordio
from flowanomaly.core import DEFAULT_DISTANCE_TOLERANCE_M, FlowRecord
from flowanomaly.errors import AllRowsRejected
from flowanomaly.recordio import EARTH_EQUATOR_M, RECORD_HEADER, parse_records, parse_timestamp
from flowanomaly.routeinfer import DistanceEvidence, collect_evidence

from conftest import make_record


def oracle_parse_timestamp(text):
    token = text.strip()
    try:
        value = float(token)
    except ValueError:
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
    if not recordio._EPOCH_MIN <= value < recordio._EPOCH_MAX:
        raise ValueError(f"time {text!r} is outside years 1-9999 UTC")
    return value


def oracle_check_token(name, value):
    token = value.strip()
    if not token:
        raise ValueError(f"{name} is empty")
    if any(ch.isspace() for ch in token) or "," in token:
        raise ValueError(f"{name} {value!r} contains whitespace or a comma")
    return token


def oracle_parse_row(row):
    if len(row) != len(RECORD_HEADER):
        raise ValueError(f"expected {len(RECORD_HEADER)} fields, got {len(row)}")
    record_id = oracle_check_token("record_id", row[0])
    service_id = oracle_check_token("service_id", row[1])
    board = oracle_check_token("board_stop", row[2])
    alight = oracle_check_token("alight_stop", row[3])
    t_start = oracle_parse_timestamp(row[4])
    t_end = oracle_parse_timestamp(row[5])
    distance = float(row[6])
    if not math.isfinite(distance):
        raise ValueError(f"distance {row[6]!r} is not finite")
    # the one rule the reference gained on purpose: no distance past the equator
    if distance > EARTH_EQUATOR_M:
        raise ValueError(f"distance {row[6]!r} is longer than the Earth's equator")
    record = FlowRecord(
        record_id=record_id,
        service_id=service_id,
        origin=board,
        destination=alight,
        t_start=t_start,
        t_end=t_end,
        distance_m=distance,
    )
    # the library's row parser returns the checked fields, not a FlowRecord
    return astuple(record)


def oracle_collect_evidence(records, eps_d=DEFAULT_DISTANCE_TOLERANCE_M):
    by_triple = {}
    flagged = {}
    for r in records:
        key = (r.service_id, r.origin, r.destination)
        known = by_triple.get(key)
        if known is None:
            by_triple[key] = DistanceEvidence(
                r.service_id, r.origin, r.destination, r.distance_m, 1
            )
        else:
            if (
                abs(known.distance_m - r.distance_m) > eps_d
                and r.service_id not in flagged
            ):
                flagged[r.service_id] = (
                    f"records disagree on {r.origin}->{r.destination}: "
                    f"{known.distance_m:g} m vs {r.distance_m:g} m"
                )
            by_triple[key] = DistanceEvidence(
                known.service_id,
                known.from_node,
                known.to_node,
                known.distance_m,
                known.support + 1,
            )
    evidence = {}
    for ev in by_triple.values():
        evidence.setdefault(ev.service_id, []).append(ev)
    return evidence, flagged


def outcome(fn, *args):
    """A call's result with floats as hex (so -0.0 != 0.0), or its error text."""
    try:
        value = fn(*args)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", value.hex() if isinstance(value, float) else value)


def record_bits(r):
    return (r.record_id, r.service_id, r.origin, r.destination,
            r.t_start.hex(), r.t_end.hex(), r.distance_m.hex())


def parse_outcome(text):
    try:
        records, rejects = parse_records(io.StringIO(text, newline=""))
    except AllRowsRejected as exc:
        return ("all rejected", exc.n_rows)
    return ([record_bits(r) for r in records],
            [(rej.line_no, rej.reason) for rej in rejects])


# every class of character str.isspace() knows, commas, quotes and line breaks
SPACES = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u200a\u2028\u2029\u202f\u205f\u3000"
token_text = st.text(alphabet=st.sampled_from("ab7_-.é" + SPACES + ',"'), max_size=6)
token_field = st.one_of(st.sampled_from(["a", "b", "s1", "x9"]), token_text)

iso_times = st.builds(
    lambda dt, minutes, style, pad: pad + {
        "ext": dt.replace(tzinfo=timezone(timedelta(minutes=minutes))).isoformat(),
        "basic": dt.strftime("%Y%m%dT%H%M%S") + ("+" if minutes >= 0 else "-")
                 + f"{abs(minutes) // 60:02d}{abs(minutes) % 60:02d}",
        "Z": dt.isoformat() + "Z",
        "z": dt.isoformat() + "z",
        "naive": dt.isoformat(),
    }[style] + pad,
    st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30)),
    st.integers(-23 * 60, 23 * 60),
    st.sampled_from(["ext", "basic", "Z", "z", "naive"]),
    st.sampled_from(["", " ", "\u3000", "\x85"]),
)
time_field = st.one_of(
    st.sampled_from([
        "12:30", "1:2", "0:0:0", ":", "Infinity", "-Infinity", "inf", "nan", "1_000",
        "20231115", "2023-11-15", "1e12", "-1e300", "-62135596800", "253402300800",
        "", " ", "Z", "z", "+0200", "1970-01-01T00:00:00+0200", "2020-01-01T00:00:00Z",
    ]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-(10 ** 12), 10 ** 12).map(str),
    iso_times,
    st.text(alphabet=st.sampled_from("0123456789:-+.eTZz_ \u3000"), max_size=12),
)
distance_field = st.one_of(
    st.sampled_from([
        "1e308", "40075017", "40075017.000001", "4.0075017e7", "4.0075018e7",
        "inf", "nan", "-5", "0", "abc", "1_000", " 400 ", "\u3000400",
    ]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(min_value=1e-3, max_value=1e9).map(repr),
)
row = st.one_of(
    st.tuples(token_field, token_field, token_field, token_field,
              time_field, time_field, distance_field).map(list),
    st.lists(token_field, min_size=1, max_size=9),
)


def to_csv(rows):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)  # its "\r\n" terminator makes it quote every line break
    writer.writerow(RECORD_HEADER)
    writer.writerows(rows)
    return buf.getvalue()


class TestParserMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(row, min_size=1, max_size=8))
    def test_parse_records(self, rows):
        text = to_csv(rows)
        got = parse_outcome(text)
        with mock.patch.object(recordio, "_parse_row", oracle_parse_row):
            want = parse_outcome(text)
        assert got == want

    @settings(max_examples=600, deadline=None)
    @given(time_field)
    def test_parse_timestamp(self, text):
        assert outcome(parse_timestamp, text) == outcome(oracle_parse_timestamp, text)

    @settings(max_examples=400, deadline=None)
    @given(token_field)
    def test_check_token(self, value):
        assert (outcome(recordio._check_token, "stop", value)
                == outcome(oracle_check_token, "stop", value))

    def test_split_and_strip_see_exactly_the_isspace_characters(self):
        # _check_token's single split() stands in for strip() plus an isspace() scan
        for ch in map(chr, range(0x110000)):
            space = ch.isspace()
            assert (len(f"a{ch}a".split()) == 2) == space, hex(ord(ch))
            assert (not ch.strip()) == space, hex(ord(ch))


def random_records(rng, n):
    stops = "abcd"
    records = []
    for i in range(n):
        origin, destination = rng.sample(stops, 2)
        distance = rng.choice([100.0, 100.5, 101.0, 101.5, 250.0, 1e3 * rng.random() + 1.0])
        records.append(make_record(
            record_id=f"r{i}", service_id=rng.choice(["s1", "s2", "s3"]),
            origin=origin, destination=destination, distance_m=distance,
        ))
    return records


class TestEvidenceMatchesOracle:
    def test_seeded_conflicting_inputs(self):
        for seed in range(300):
            rng = random.Random(seed)
            records = random_records(rng, rng.randrange(0, 40))
            for eps_d in (0.0, 0.5, DEFAULT_DISTANCE_TOLERANCE_M, 1e9):
                got = collect_evidence(records, eps_d)
                want = oracle_collect_evidence(records, eps_d)
                assert [list(d.items()) for d in got] == [list(d.items()) for d in want]

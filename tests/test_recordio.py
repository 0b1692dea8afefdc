import io

import pytest
from hypothesis import given, settings, strategies as st

from flowanomaly import recordio
from flowanomaly.errors import AllRowsRejected, UnreadableInput
from flowanomaly.recordio import (
    RECORD_HEADER,
    SCORED_HEADER,
    format_float,
    parse_records,
    parse_timestamp,
    write_records,
    write_scored,
)

from conftest import make_record, table_of

HEADER = ",".join(RECORD_HEADER)


def parse_text(text):
    return parse_records(io.StringIO(text))


class TestParseTimestamp:
    def test_epoch_seconds(self):
        assert parse_timestamp("1234.5") == 1234.5

    def test_iso_with_offset(self):
        # 2011-12-15 08:04:37 +08:00 == 2011-12-15 00:04:37 UTC
        assert parse_timestamp("2011-12-15T08:04:37+08:00") == 1323907477.0

    def test_iso_zulu(self):
        assert parse_timestamp("2011-12-15T00:04:37Z") == 1323907477.0

    def test_naive_iso_rejected(self):
        with pytest.raises(ValueError):
            parse_timestamp("2011-12-15T08:04:37")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_timestamp("yesterday")


    @pytest.mark.parametrize("text", [
        "-1e300", "1e12", "-62135596801", "253402300800",
        "0001-01-01T00:00:00+05:00", "9999-12-31T23:59:59-01:00",
    ])
    def test_outside_utc_datetime_range_rejected(self, text):
        with pytest.raises(ValueError, match="outside years 1-9999 UTC"):
            parse_timestamp(text)

    def test_utc_datetime_range_bounds_accepted(self):
        assert parse_timestamp("0001-01-01T00:00:00Z") == -62135596800.0
        assert parse_timestamp("-62135596800") == -62135596800.0
        assert parse_timestamp("9999-12-31T23:59:59Z") == 253402300799.0


class TestParseRecords:
    def test_well_formed(self):
        text = HEADER + "\n" + "\n".join([
            "r1,s1,a,b,0,60,400",
            "r2,s1,b,c,120,240,800",
            "r3,s2,x,y,2011-12-15T08:00:00+08:00,2011-12-15T08:10:00+08:00,1200",
        ]) + "\n"
        records, rejects = parse_text(text)
        assert len(records) == 3 and not rejects
        assert records[2].observed_s == 600.0

    def test_bad_time_order_rejected_with_line(self):
        text = HEADER + "\nr1,s1,a,b,100,100,400\nr2,s1,a,b,0,60,400\n"
        records, rejects = parse_text(text)
        assert [r.record_id for r in records] == ["r2"]
        assert rejects[0].line_no == 2
        assert "t_end" in rejects[0].reason

    def test_mixed_epoch_and_iso(self):
        text = HEADER + "\nr1,s1,a,b,0,60,400\nr2,s1,a,b,1970-01-01T00:00:00Z,1970-01-01T00:01:00Z,400\n"
        records, _ = parse_text(text)
        assert records[0].observed_s == records[1].observed_s == 60.0

    def test_field_count_mismatch(self):
        text = HEADER + "\nr1,s1,a,b,0,60\n"
        with pytest.raises(AllRowsRejected):
            parse_text(text)

    def test_whitespace_token_rejected(self):
        text = HEADER + "\nr1,s1,a a,b,0,60,400\nr2,s1,a,b,0,60,400\n"
        records, rejects = parse_text(text)
        assert len(records) == 1 and len(rejects) == 1

    def test_bad_distance_rejected(self):
        text = HEADER + "\nr1,s1,a,b,0,60,-5\nr2,s1,a,b,0,60,abc\nr3,s1,a,b,0,60,4\n"
        records, rejects = parse_text(text)
        assert [r.record_id for r in records] == ["r3"]
        assert {rej.line_no for rej in rejects} == {2, 3}

    @pytest.mark.parametrize("row", [
        "r1,s1,a,b,0,60,inf",
        "r1,s1,a,b,0,60,nan",
        "r1,s1,a,b,0,inf,400",
        "r1,s1,a,b,-inf,60,400",
        "r1,s1,a,b,nan,60,400",
    ])
    def test_non_finite_rejected_with_reason(self, row):
        records, rejects = parse_text(HEADER + "\n" + row + "\nr2,s1,a,b,0,60,400\n")
        assert [r.record_id for r in records] == ["r2"]
        assert rejects[0].line_no == 2
        assert "not finite" in rejects[0].reason

    def test_distance_longer_than_equator_rejected_with_reason(self):
        text = HEADER + "\nr1,s1,a,b,0,60,1e308\nr2,s1,a,b,0,60,40075017.000001\nr3,s1,a,b,0,60,40075017\n"
        records, rejects = parse_text(text)
        assert [r.record_id for r in records] == ["r3"]
        assert [(rej.line_no, rej.reason) for rej in rejects] == [
            (2, "distance '1e308' is longer than the Earth's equator"),
            (3, "distance '40075017.000001' is longer than the Earth's equator"),
        ]

    def test_out_of_range_time_rejected_with_reason(self):
        text = HEADER + "\nr1,s1,a,b,-1e300,60,400\nr2,s1,a,b,0,1e12,400\nr3,s1,a,b,0,60,400\n"
        records, rejects = parse_text(text)
        assert [r.record_id for r in records] == ["r3"]
        assert [(rej.line_no, rej.reason) for rej in rejects] == [
            (2, "time '-1e300' is outside years 1-9999 UTC"),
            (3, "time '1e12' is outside years 1-9999 UTC"),
        ]

    def test_benchmark_malformed_row_reasons(self):
        # the five kinds of malformed row that perfbench/gen.py injects
        rows = [
            "b0,s1,a,b,0,60",
            "b1,s1,a,b,not-a-time,2020-01-01T00:01:00+02:00,400",
            "b2,s1,a,b,2020-01-01T00:00:00,2020-01-01T00:01:00+02:00,400",
            "b3,s1,a,b,0,60,-400",
            "b4,s1,a,b,0,60,0",
            "b5,s1,a,b,60,0,400",
            "ok,s1,a,b,0,60,400",
        ]
        records, rejects = parse_text(HEADER + "\n" + "\n".join(rows) + "\n")
        assert [r.record_id for r in records] == ["ok"]
        assert [rej.reason for rej in rejects] == [
            "expected 7 fields, got 6",
            "unparseable time 'not-a-time'",
            "time '2020-01-01T00:00:00' has no UTC offset",
            "record 'b3': distance must be positive",
            "record 'b4': distance must be positive",
            "record 'b5': t_end must exceed t_start",
        ]

    def test_oversized_field_is_one_reject_row(self):
        # csv.reader raises past its field size limit (131072 characters); the
        # row after it must keep parsing, and every row keeps its number
        rows = ["r1,s1,a,b,0,60,400", "r2,s1,a,b,0,60," + "x" * 200_000,
                "r3,s1,a,b,0,60,400", "r4,s1,a,b,60,0,400", "r5,s1,a,b,0,60,400"]
        records, rejects = parse_text(HEADER + "\n" + "\n".join(rows) + "\n")
        assert [r.record_id for r in records] == ["r1", "r3", "r5"]
        assert [(rej.line_no, rej.reason) for rej in rejects] == [
            (3, "field larger than field limit (131072)"),
            (5, "record 'r4': t_end must exceed t_start"),
        ]

    def test_non_utf8_bytes_reject_their_row_only(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_bytes(
            (HEADER + "\nr1,s1,a,b,0,60,400\n").encode()
            + b"\xff\xfe,s1,a,b,0,60,400\n"
            + b"r3,s1,a,b\xc3,0,60,400\n"
            + "r4,s1,é,b,0,60,400\n".encode()
        )
        records, rejects = parse_records(str(path))
        assert [(r.record_id, r.origin) for r in records] == [("r1", "a"), ("r4", "é")]
        assert [(rej.line_no, rej.reason) for rej in rejects] == [
            (3, "record_id is not valid UTF-8"),
            (4, "alight_stop is not valid UTF-8"),
        ]

    def test_all_rows_rejected(self):
        text = HEADER + "\nr1,s1,a,b,60,0,400\n"
        with pytest.raises(AllRowsRejected):
            parse_text(text)

    def test_header_only_is_empty(self):
        records, rejects = parse_text(HEADER + "\n")
        assert records == [] and rejects == []

    def test_bad_header(self):
        with pytest.raises(UnreadableInput):
            parse_text("nope,fields\nr1,s1\n")

    def test_no_header(self):
        with pytest.raises(UnreadableInput):
            parse_text("")

    def test_missing_file(self, tmp_path):
        with pytest.raises(UnreadableInput):
            parse_records(str(tmp_path / "nothing.csv"))


class TestRoundTrip:
    def test_write_then_parse_is_exact(self, tmp_path):
        records = [
            make_record(record_id="r1", t_start=0.1, t_end=1.0 / 3.0, distance_m=123.456),
            make_record(record_id="r2", service_id="s2", origin="x", destination="y",
                        t_start=1.0e9 + 0.25, t_end=1.0e9 + 7711.125, distance_m=9999.5),
        ]
        path = tmp_path / "records.csv"
        write_records(records, str(path))
        got, rejects = parse_records(str(path))
        assert not rejects
        assert got == records


class TestWriteRecords:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False),
                              st.floats(min_value=0.0, exclude_min=True)), max_size=30))
    def test_rows_are_the_per_field_formats(self, values):
        records = [make_record(record_id=f"r{i}", service_id=f"s{i % 3}", t_start=min(a, b),
                               t_end=max(a, b), distance_m=d)
                   for i, (a, b, d) in enumerate(values) if a != b]
        buf = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recordio, "_RECORD_BLOCK", 7)  # rows span several blocks
            write_records(iter(records), buf)
        f = format_float
        want = [HEADER] + [
            f"{r.record_id},{r.service_id},{r.origin},{r.destination},"
            f"{f(r.t_start)},{f(r.t_end)},{f(r.distance_m)}"
            for r in records
        ]
        assert buf.getvalue() == "\n".join(want) + "\n"


class TestWriteScored:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(), st.sampled_from([0.0, -0.0, 1.5, 100.0 / 3.0]),
                              st.floats()), min_size=1, max_size=30),
           st.floats(allow_nan=False))
    def test_rows_are_the_per_field_formats(self, values, delta):
        # expected times repeat, as an edge model's do, including 0.0 and -0.0
        records = [make_record(record_id=f"r{i}", t_start=float(i), t_end=i + 0.5)
                   for i in range(len(values))]
        rows = list(range(len(values)))[::-1]
        observed, expected, alphas = (list(column) for column in zip(*values))
        buf = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recordio, "_SCORED_BLOCK", 7)  # rows span several blocks
            write_scored(table_of(records), rows, observed, expected, alphas, delta, buf)
        f = format_float
        want = [f"# delta={f(delta)}", SCORED_HEADER] + [
            f"{records[i].record_id},s1,a,b,{f(records[i].t_start)},{f(records[i].t_end)},"
            f"{f(t)},{f(e)},{f(a)},{1 if a > delta else 0}"
            for i, t, e, a in zip(rows, observed, expected, alphas)
        ]
        assert buf.getvalue() == "\n".join(want) + "\n"

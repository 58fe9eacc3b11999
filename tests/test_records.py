import ast
import codecs
import csv
import gc
import io
import json
import pickle
import re
import time
import tracemalloc
import warnings
from array import array
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterator
from zoneinfo import ZoneInfo

import pytest
from hypothesis import example, given, settings, strategies as st

import geotrips
from geotrips.analytics import TimeOfDayHistogram, read_series_csv
from geotrips.cli import _profiles_from
from geotrips.displacement import (
    Displacement,
    FilterConfig,
    RunReport,
    _format_row,
    _parse_fields,
    read_displacements_csv,
    read_od_rows,
    run_extraction,
    write_displacements_csv,
)
from geotrips.errors import FormatMismatchError, ValidationError
from geotrips.ingest import load_timelines
from geotrips.records import (
    CsvFields,
    RejectedLine,
    TweetRecord,
    UserTimeline,
    _parse_utc,
    _raw_rows,
    build_timelines,
    dedupe_records,
    format_us,
    from_epoch_us,
    parse_records,
    parse_timestamp,
    read_table,
    to_epoch_us,
    write_records_csv,
    write_table,
)
from geotrips.synthgen import GroundTruthTrip, SynthConfig, generate, read_ground_truth_csv
from oracles import format_timestamp

HEADER = "user_id,lat,lon,timestamp,text\n"


def parse_csv(body: str, **kwargs):
    return parse_records(io.StringIO(HEADER + body), format="csv", **kwargs)


class TestParseRecords:
    def test_canonical_example_line(self):
        res = parse_csv('138987307,40.99412,-73.87725,2014-08-02T21:58:00Z,"just posted a photo"\n')
        assert res.rejects == []
        (rec,) = res.records
        assert rec.user_id == "138987307"
        assert rec.lat == 40.99412
        assert rec.lon == -73.87725
        assert rec.timestamp == datetime(2014, 8, 2, 21, 58, tzinfo=timezone.utc)
        assert rec.text == "just posted a photo"

    def test_empty_input(self):
        res = parse_records(io.StringIO(""), format="csv")
        assert res.records == [] and res.rejects == [] and res.lines_read == 0

    def test_latitude_out_of_range_rejected(self):
        res = parse_csv(
            "u1,95.0,-73.9,2014-08-02T21:58:00Z,hi\n"
            "u1,40.9,-73.9,2014-08-02T22:58:00Z,ok\n"
        )
        assert len(res.records) == 1
        (rej,) = res.rejects
        assert rej.line_number == 2
        assert "latitude out of range" in rej.reason

    def test_count_conservation(self):
        body = (
            "u1,40.9,-73.9,2014-08-02T21:58:00Z,a\n"
            "u1,40.9,-73.9,not-a-time,b\n"
            "u2,40.9,oops,2014-08-02T21:58:00Z,c\n"
            "u2,40.9,-73.9,2014-08-02T23:58:00Z,d\n"
        )
        res = parse_csv(body)
        assert len(res.records) + len(res.rejects) == res.lines_read == 4

    def test_mostly_rejected_is_format_mismatch(self):
        body = "".join(f"u,{i},bad,bad,x\n" for i in range(10))
        with pytest.raises(FormatMismatchError):
            parse_csv(body)

    def test_wrong_header_is_format_mismatch(self):
        with pytest.raises(FormatMismatchError):
            parse_records(io.StringIO("a,b,c\n1,2,3\n"), format="csv")

    def test_jsonl(self):
        lines = (
            '{"user_id": "u1", "lat": 40.9, "lon": -73.9, "timestamp": "2014-08-02T21:58:00Z"}\n'
            "{broken\n"
        )
        res = parse_records(io.StringIO(lines), format="jsonl")
        assert len(res.records) == 1
        assert res.records[0].text == ""
        assert len(res.rejects) == 1
        assert res.rejects[0].line_number == 2

    @pytest.mark.parametrize(
        "fields, reason",
        [
            ('"user_id": null', "user_id is not a string or an integer"),
            ('"user_id": true', "user_id is not a string or an integer"),
            ('"user_id": 1.5', "user_id is not a string or an integer"),
            ('"user_id": ["u1"]', "user_id is not a string or an integer"),
            ('"user_id": "a\\rb"', "user_id holds a carriage return"),
            ('"user_id": "u1", "lat": true, "lon": false', "non-numeric coordinates"),
            ('"user_id": "u1", "lat": 40.9, "lon": false', "non-numeric coordinates"),
        ],
    )
    def test_jsonl_field_of_the_wrong_type_is_rejected(self, fields, reason):
        good = '{"user_id": 7, "lat": 40.9, "lon": -73.9, "timestamp": "2014-08-02T21:58:00Z"}\n'
        bad = '{"lat": 40.9, "lon": -73.9, "timestamp": "2014-08-02T22:58:00Z", %s}\n' % fields
        res = parse_records(io.StringIO(good * 2 + bad), format="jsonl")
        assert res.rejects == [RejectedLine(3, reason)]
        assert [r.user_id for r in res.records] == ["7", "7"]  # an integer id is its digits

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("u1,nan,-73.9,2014-08-02T22:58:00Z,x", "non-finite coordinates"),
            ("u1,40.9,-inf,2014-08-02T22:58:00Z,x", "non-finite coordinates"),
            ("u1,40.9,180.5,2014-08-02T22:58:00Z,x", "longitude out of range"),
            ("u1,40.9,-73.9,8/2/2014 25:58,x", "unparseable timestamp '8/2/2014 25:58'"),
            ("u1,40.9,-73.9,2014-08-02 22h58,x", "unparseable timestamp '2014-08-02 22h58'"),
            ("u1,40,-74,2014-02-30T00:00:00Z,x", "unparseable timestamp '2014-02-30T00:00:00Z'"),
            ("u1,40,-74,2014-08-02T24:00:00Z,x", "unparseable timestamp '2014-08-02T24:00:00Z'"),
        ],
        ids=["lat-nan", "lon-infinite", "lon-range", "legacy-hour", "legacy-neither",
             "iso-day-30-feb", "iso-hour-24"],
    )
    def test_bad_csv_value_is_rejected_under_a_legacy_tz(self, line, reason):
        res = parse_csv(
            f"u1,40.9,-73.9,8/2/2014 21:58,a\n{line}\n", legacy_tz=ZoneInfo("America/New_York")
        )
        assert res.rejects == [RejectedLine(3, reason)]
        assert len(res.records) == 1

    def test_csv_user_id_with_carriage_return_is_rejected(self):
        res = parse_csv(
            'u1,40.9,-73.9,2014-08-02T21:58:00Z,a\n'
            '"a\rb",40.9,-73.9,2014-08-02T21:58:00Z,b\n'
            'u1,40.9,-73.9,2014-08-02T22:58:00Z,c\n'
        )
        assert res.rejects == [RejectedLine(3, "user_id holds a carriage return")]
        assert len(res.records) == 2

    def test_naive_timestamp_rejected_without_legacy_tz(self):
        res = parse_csv(
            "u1,40.9,-73.9,2014-08-02T21:58:00,x\n"
            "u1,40.9,-73.9,2014-08-02T21:59:00Z,y\n"
        )
        assert len(res.rejects) == 1
        assert "offset" in res.rejects[0].reason

    def test_legacy_display_format(self):
        tz = ZoneInfo("America/New_York")
        res = parse_csv("u1,40.9,-73.9,8/2/2014 21:58,x\n", legacy_tz=tz)
        assert res.rejects == []
        assert res.records[0].timestamp == datetime(2014, 8, 2, 21, 58, tzinfo=tz).astimezone(
            timezone.utc
        )


class TestTimestamps:
    @pytest.mark.parametrize(
        "raw",
        ["2014-08-02T21:58:00Z", "2014-08-02T21:58:00+00:00", "2014-08-02T17:58:00-04:00"],
    )
    def test_explicit_offsets_accepted(self, raw):
        assert parse_timestamp(raw).tzinfo == timezone.utc

    def test_format_round_trip(self):
        dt = datetime(2014, 8, 2, 21, 58, 3, tzinfo=timezone.utc)
        assert parse_timestamp(format_timestamp(dt)) == dt

    def test_format_converts_other_offsets_to_utc(self):
        dt = datetime(2014, 8, 2, 22, 58, 3, tzinfo=timezone(timedelta(hours=1)))
        assert format_us(to_epoch_us(dt)) == "2014-08-02T21:58:03Z"


def _outcome(parse, raw):
    try:
        dt = parse(raw)
    except Exception as exc:
        return type(exc), str(exc)
    return dt, dt.tzinfo


ARABIC_INDIC = str.maketrans("0123456789", "".join(chr(0x660 + d) for d in range(10)))


@st.composite
def timestamp_strings(draw):
    """ISO-like strings: canonical, near-canonical and broken."""
    dt = draw(st.datetimes())
    body = draw(
        st.sampled_from(
            [
                dt.isoformat(),
                dt.isoformat(timespec="seconds"),
                dt.isoformat(sep=" ", timespec="milliseconds"),
                dt.date().isoformat(),
            ]
        )
    )
    suffix = draw(st.sampled_from(["Z", "z", "+00:00", "+01:00", "-04:30", "", "ZZ", "+00:00Z"]))
    raw = body + suffix
    if draw(st.booleans()):
        raw = raw.translate(ARABIC_INDIC)
    pad = st.sampled_from(["", " ", "\t", "  "])
    return draw(pad) + raw + draw(pad)


class TestFastTimestamp:
    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(
        st.one_of(
            timestamp_strings(),
            st.text(max_size=30),
            st.text("0123456789-:TZz+. ", max_size=30),
        )
    )
    @example("2014-08-02T21:58:00Z")
    @example("2014-08-02Z")
    @example("\u0662014-08-02T21:58:00Z")
    @example("9999-12-31T23:59:59.999999Z")
    @example("0001-01-01T00:00:00+01:00")
    @example("9999-12-31T23:59:59-01:00")
    @example("2014-08-02T21:58:00Z" + "x" * 200_000)
    def test_matches_parse_timestamp(self, raw):
        assert _outcome(_parse_utc, raw) == _outcome(parse_timestamp, raw)

    @pytest.mark.parametrize("raw", ["9999-12-31T23:59:59-01:00", "0001-01-01T00:00:00+01:00"])
    def test_out_of_range_in_utc_is_value_error(self, raw):
        with pytest.raises(ValueError, match="out of range in UTC"):
            parse_timestamp(raw)

    def test_legacy_timezone_still_applies(self):
        tz = ZoneInfo("America/New_York")
        assert _parse_utc("8/2/2014 21:58", tz) == parse_timestamp("8/2/2014 21:58", tz)


# Wall-clock instants whose UTC form stays inside years 1-9999 for any
# offset below 24 h.
WALL_CLOCKS = st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30))
LEGACY_ZONES = ("UTC", "America/New_York", "Asia/Kolkata", "Pacific/Chatham")


@st.composite
def stamped_instants(draw):
    """An instant parsed from a `Z`, a `+hh:mm`/`-hh:mm` or a legacy-timezone
    string, with the string and the zone it was read in."""
    wall = draw(WALL_CLOCKS)
    form = draw(st.sampled_from(["Z", "offset", "legacy"]))
    legacy_tz = None
    if form == "Z":
        raw = wall.isoformat() + "Z"
    elif form == "offset":
        minutes = draw(st.integers(-(24 * 60 - 1), 24 * 60 - 1))
        sign = "-" if minutes < 0 else "+"
        raw = f"{wall.isoformat()}{sign}{abs(minutes) // 60:02d}:{abs(minutes) % 60:02d}"
    else:
        legacy_tz = ZoneInfo(draw(st.sampled_from(LEGACY_ZONES)))
        raw = f"{wall.month}/{wall.day}/{wall.year:04d} {wall.hour:02d}:{wall.minute:02d}"
    return parse_timestamp(raw, legacy_tz)


DATETIME_MIN = datetime.min.replace(tzinfo=timezone.utc)
DATETIME_MAX = datetime.max.replace(tzinfo=timezone.utc)


class TestEpochMicroseconds:
    """A timeline's `times` stand in for the parsed datetimes without changing
    any gap, written timestamp or crossing estimate."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(
        st.datetimes(
            min_value=datetime(1, 1, 1),
            max_value=datetime(9999, 12, 31, 23, 59, 59, 999_999),
            timezones=st.just(timezone.utc),
        )
    )
    @example(datetime(1, 1, 1, tzinfo=timezone.utc))
    @example(datetime(9999, 12, 31, 23, 59, 59, 999_999, tzinfo=timezone.utc))
    @example(datetime(1969, 12, 31, 23, 59, 59, 999_999, tzinfo=timezone.utc))
    def test_round_trip_is_exact(self, d):
        back = from_epoch_us(to_epoch_us(d))
        assert back == d and back.tzinfo is timezone.utc
        assert format_timestamp(back) == format_timestamp(d)

    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(st.integers(to_epoch_us(DATETIME_MIN), to_epoch_us(DATETIME_MAX)))
    @example(to_epoch_us(DATETIME_MIN))
    @example(to_epoch_us(DATETIME_MAX))
    @example(0)
    @example(-1)
    @example(1)
    @example(-86_400_000_000)  # the day before the epoch, at midnight
    @example(86_400_000_000 - 1)  # the last microsecond of the epoch's day
    @example(1_407_016_680_000_000)  # 2014-08-02T21:58:00Z
    @example(1_407_016_680_500_000)  # and half a second later
    def test_format_us_matches_format_timestamp(self, t):
        assert format_us(t) == format_timestamp(from_epoch_us(t))

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(stamped_instants(), stamped_instants())
    def test_gap_written_time_and_crossing_match_datetimes(self, d0, d1):
        t0, t1 = to_epoch_us(d0), to_epoch_us(d1)
        dt = (t1 - t0) / 1_000_000
        assert dt == (d1 - d0).total_seconds()
        start = from_epoch_us(t0)
        assert format_timestamp(start) == format_timestamp(d0)
        assert format_timestamp(from_epoch_us(t1)) == format_timestamp(d1)
        if dt > 0:
            crossing = start + timedelta(seconds=dt / 2.0)
            reference = d0 + timedelta(seconds=(d1 - d0).total_seconds() / 2.0)
            assert crossing == reference
            assert format_timestamp(crossing) == format_timestamp(reference)


def make_record(user="u1", lat=40.9, lon=-73.9, ts="2014-08-02T21:58:00Z", text=""):
    return TweetRecord(user, lat, lon, to_epoch_us(parse_timestamp(ts)), text)


class TestRoundTrip:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["u1", "u2", "u3"]),
                st.floats(min_value=-90, max_value=90, allow_nan=False),
                st.floats(min_value=-180, max_value=180, allow_nan=False),
                st.integers(min_value=0, max_value=2_000_000_000),
                st.text(
                    alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
                    max_size=30,
                ),
            ),
            max_size=30,
        )
    )
    def test_csv_round_trip(self, rows):
        records = [
            TweetRecord(u, lat, lon, ts * 1_000_000, text)
            for u, lat, lon, ts, text in rows
        ]
        buf = io.StringIO()
        write_records_csv(records, buf)
        buf.seek(0)
        res = parse_records(buf, format="csv")
        assert res.rejects == []
        assert res.records == records


class TestDedupe:
    def test_exact_duplicates_dropped_and_counted(self):
        a = make_record()
        b = make_record(ts="2014-08-02T22:58:00Z")
        kept, dropped = dedupe_records([a, b, a, a])
        assert kept == [a, b]
        assert dropped == 2

    def test_same_time_different_coords_kept(self):
        a = make_record(lat=40.9)
        b = make_record(lat=40.8)
        kept, dropped = dedupe_records([a, b])
        assert kept == [a, b] and dropped == 0


class TestBuildTimelines:
    def test_out_of_order_records_sorted(self):
        recs = [
            make_record(ts="2014-08-02T23:00:00Z"),
            make_record(ts="2014-08-02T21:00:00Z"),
            make_record(ts="2014-08-02T22:00:00Z"),
        ]
        (tl,) = build_timelines(recs).values()
        times = [r.timestamp for r in tl.records]
        assert times == sorted(times)

    def test_two_users_partitioned(self):
        recs = [
            make_record(user="u1"),
            make_record(user="u2"),
            make_record(user="u1", ts="2014-08-02T22:00:00Z"),
        ]
        tls = build_timelines(recs)
        assert set(tls) == {"u1", "u2"}
        assert len(tls["u1"].records) == 2 and len(tls["u2"].records) == 1

    def test_equal_timestamps_keep_input_order(self):
        a = make_record(lat=40.1)
        b = make_record(lat=40.2)
        c = make_record(lat=40.3, ts="2014-08-02T20:00:00Z")
        expected = sorted([a, b, c], key=lambda r: r.timestamp)  # stable oracle
        (tl,) = build_timelines([a, b, c]).values()
        assert list(tl.records) == expected
        assert tl.records[1] == a and tl.records[2] == b

    @given(
        st.lists(
            st.tuples(st.sampled_from(["u1", "u2", "u3"]), st.integers(0, 50)),
            max_size=50,
        )
    )
    def test_bijective_partition(self, rows):
        # A timeline keeps no text, so each record's index is its longitude.
        recs = [
            TweetRecord(u, 40.0, float(i), t * 1_000_000)
            for i, (u, t) in enumerate(rows)
        ]
        tls = build_timelines(recs)
        flattened = [r for tl in tls.values() for r in tl.records]
        assert sorted(flattened, key=lambda r: r.lon) == recs
        for uid, tl in tls.items():
            assert all(r.user_id == uid for r in tl.records)


# One instant written three ways, a neighbouring instant, and one between.
TIMESTAMP_FORMS = (
    "2014-08-02T21:58:00Z",
    "2014-08-02T21:58:00+00:00",
    "2014-08-02T22:58:00+01:00",
    "2014-08-02T21:58:01Z",
    "2014-08-02T21:57:59.500000Z",
)
COORDINATES = (0.0, -0.0, 40.5, 40.25)

# Bad lines by kind, in the same order for both formats: blank, whitespace,
# wrong shape, non-numeric, out of range, no user, no UTC offset, and a line
# the parser itself fails on (a field over csv.field_size_limit(), JSON
# nested past the recursion limit).
BAD_LINES = {
    "csv": (
        "",
        "   ",
        "u1,oops",
        "u1,40.5,xx,2014-08-02T21:58:00Z,t",
        "u1,95.0,0.0,2014-08-02T21:58:00Z,t",
        ",40.5,0.0,2014-08-02T21:58:00Z,t",
        "u1,40.5,0.0,2014-08-02T21:58:00,t",
        "u1,40.5,0.0,2014-08-02T21:58:00Z," + "x" * 200_000,
    ),
    "jsonl": (
        "",
        "   ",
        "{broken",
        '{"user_id": "u1", "lat": 40.5, "lon": "xx", "timestamp": "2014-08-02T21:58:00Z"}',
        '{"user_id": "u1", "lat": 95.0, "lon": 0.0, "timestamp": "2014-08-02T21:58:00Z"}',
        "[1, 2]",
        '{"user_id": "u1", "lat": 40.5, "lon": 0.0, "timestamp": "2014-08-02T21:58:00"}',
        "[" * 100_000,
    ),
}

good_row = st.tuples(
    st.sampled_from(["u1", "u2", "u3"]),
    st.sampled_from(COORDINATES),
    st.sampled_from(COORDINATES),
    st.sampled_from(TIMESTAMP_FORMS),
    st.sampled_from(["", "a", "b"]),  # duplicates may differ only in text
)
ingest_rows = st.lists(
    st.one_of(good_row, st.integers(0, len(BAD_LINES["csv"]) - 1)), max_size=40
)


# Among good rows: a text over csv.field_size_limit() (a CSV reject, a good
# JSONL record) and two instants outside datetime's range once in UTC.
HARD_ROWS = [
    ("u1", 40.5, 0.0, TIMESTAMP_FORMS[0], ""),
    ("u1", 40.5, 0.0, TIMESTAMP_FORMS[3], "x" * 200_000),
    ("u1", 40.25, 0.0, TIMESTAMP_FORMS[3], ""),
    ("u2", 40.5, 0.0, "9999-12-31T23:59:59-01:00", ""),
    ("u2", 40.5, 0.0, "0001-01-01T00:00:00+01:00", ""),
    ("u2", 40.5, 0.0, TIMESTAMP_FORMS[4], ""),
]


# Days and hours `datetime.fromisoformat` refuses, in the `...<digit>Z` form.
IMPOSSIBLE_STAMP_ROWS = [
    ("u1", 40.5, 0.0, TIMESTAMP_FORMS[0], ""),
    ("u1", 40.5, 0.0, "2014-02-30T00:00:00Z", ""),
    ("u1", 40.25, 0.0, TIMESTAMP_FORMS[3], ""),
    ("u2", 40.5, 0.0, "2014-08-02T24:00:00Z", ""),
    ("u2", 40.5, 0.0, TIMESTAMP_FORMS[0], ""),
]
# One user whose times strictly increase.
IN_ORDER_ROWS = [
    ("u1", 40.5, 0.0, TIMESTAMP_FORMS[4], ""),
    ("u1", 40.25, 0.0, TIMESTAMP_FORMS[0], ""),
    ("u1", 40.5, 0.0, TIMESTAMP_FORMS[3], ""),
    ("u1", 40.25, -0.0, "2014-08-02T21:58:02Z", ""),
]
# One user whose times never decrease, with adjacent exact duplicates.
NEVER_DECREASING_ROWS = [
    ("u1", 0.0, 0.0, TIMESTAMP_FORMS[4], "a"),
    ("u1", -0.0, 0.0, TIMESTAMP_FORMS[4], "b"),  # == 0.0: the first one read stands
    ("u1", 40.5, 0.0, TIMESTAMP_FORMS[0], ""),
    ("u1", 40.5, 0.0, TIMESTAMP_FORMS[1], ""),  # the same instant and place
    ("u1", 40.25, 0.0, TIMESTAMP_FORMS[2], ""),  # the same instant, a new place
    ("u1", 40.5, -0.0, TIMESTAMP_FORMS[0], ""),
    ("u1", 40.5, 0.0, TIMESTAMP_FORMS[3], ""),
]
# Both coordinates bad: the reason is the first of non-finite, latitude, longitude.
BAD_COORDINATE_ROWS = IN_ORDER_ROWS + [
    ("u1", 95.0, 200.0, TIMESTAMP_FORMS[0], ""),
    ("u1", float("nan"), 200.0, TIMESTAMP_FORMS[0], ""),
    ("u1", 95.0, float("-inf"), TIMESTAMP_FORMS[0], ""),
]
# A JSON timestamp that is no string, and a coordinate that is a bool.
WRONG_TYPE_ROWS = IN_ORDER_ROWS + [
    ("u1", 40.5, 0.0, 1407016680, ""),
    ("u1", True, 0.0, TIMESTAMP_FORMS[0], ""),
]
# Two users whose lines alternate.
ALTERNATING_ROWS = [
    (user, lat, 0.0, ts, "")
    for ts in (TIMESTAMP_FORMS[4], TIMESTAMP_FORMS[0], TIMESTAMP_FORMS[3])
    for user, lat in (("u1", 40.5), ("u2", 40.25))
]


def render(rows, fmt: str) -> str:
    lines = ["user_id,lat,lon,timestamp,text"] if fmt == "csv" else []
    for row in rows:
        if isinstance(row, int):
            lines.append(BAD_LINES[fmt][row])
        elif fmt == "csv":
            user, lat, lon, ts, text = row
            lines.append(f"{user},{lat!r},{lon!r},{ts},{text}")
        else:
            user, lat, lon, ts, text = row
            obj = {"user_id": user, "lat": lat, "lon": lon, "timestamp": ts, "text": text}
            lines.append(json.dumps(obj))
    return "".join(line + "\n" for line in lines)


def assert_ingest_matches_reference(text: str, fmt: str):
    """load_timelines against parse_records -> dedupe_records -> build_timelines."""
    try:
        ref = parse_records(io.StringIO(text), format=fmt)
    except FormatMismatchError as exc:
        with pytest.raises(FormatMismatchError, match=re.escape(str(exc))):
            load_timelines(io.StringIO(text), format=fmt)
        return
    kept, duplicates = dedupe_records(ref.records)
    expected = build_timelines(kept)
    got = load_timelines(io.StringIO(text), format=fmt)
    assert got.timelines == expected
    # repr tells 0.0 from -0.0 and shows each timestamp's tzinfo.
    assert repr(got.timelines) == repr(expected)
    assert got.rejects == ref.rejects
    assert got.lines_read == ref.lines_read
    assert got.parsed_records == len(ref.records)
    assert got.duplicates == duplicates
    assert got.lines_read == got.parsed_records + len(got.rejects)
    kept_total = sum(len(tl.records) for tl in got.timelines.values())
    assert got.parsed_records == kept_total + got.duplicates


class TestLoadTimelines:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(ingest_rows, st.sampled_from(["csv", "jsonl"]))
    @example(
        [
            ("u1", 40.5, 0.0, TIMESTAMP_FORMS[0], "a"),
            ("u1", 40.5, 0.0, TIMESTAMP_FORMS[1], "b"),  # same instant, +00:00, new text
            ("u1", 40.5, -0.0, TIMESTAMP_FORMS[2], ""),  # same instant, +01:00, -0.0
            ("u1", 40.25, 0.0, TIMESTAMP_FORMS[0], ""),  # same instant, new place
            ("u2", 40.5, 0.0, TIMESTAMP_FORMS[0], "a"),  # another user
            ("u1", 40.5, 0.0, TIMESTAMP_FORMS[3], "a"),
            ("u1", 40.5, 0.0, TIMESTAMP_FORMS[4], "a"),  # sorts first
            0,
            2,
            6,
        ],
        "csv",
    )
    @example([("u1", 40.5, 0.0, TIMESTAMP_FORMS[0], ""), 2, 3, 4], "jsonl")  # 3 of 4 rejected
    @example(HARD_ROWS, "csv")
    @example(HARD_ROWS, "jsonl")
    @example([HARD_ROWS[0], 7, HARD_ROWS[2]], "csv")
    @example([HARD_ROWS[0], 7, HARD_ROWS[2]], "jsonl")
    @example([], "csv")
    @example([], "jsonl")
    @example([0, 1], "jsonl")
    @example(IMPOSSIBLE_STAMP_ROWS, "csv")
    @example(IMPOSSIBLE_STAMP_ROWS, "jsonl")
    @example(IN_ORDER_ROWS, "csv")  # no dedupe, no sort
    @example(NEVER_DECREASING_ROWS, "csv")  # dedupe, no sort
    @example(NEVER_DECREASING_ROWS, "jsonl")
    @example(IN_ORDER_ROWS[::-1], "csv")  # out of order
    @example(BAD_COORDINATE_ROWS, "csv")
    @example(BAD_COORDINATE_ROWS, "jsonl")
    @example(ALTERNATING_ROWS, "csv")  # the bound appends switch on every line
    @example(ALTERNATING_ROWS, "jsonl")
    @example(WRONG_TYPE_ROWS, "jsonl")
    def test_matches_stage_composition(self, rows, fmt):
        assert_ingest_matches_reference(render(rows, fmt), fmt)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_mostly_rejected_is_format_mismatch(self, fmt):
        text = render([("u1", 40.5, 0.0, TIMESTAMP_FORMS[0], ""), 3, 4], fmt)
        with pytest.raises(FormatMismatchError):
            load_timelines(io.StringIO(text), format=fmt)

    def test_hard_lines_are_rejected_with_their_line_numbers(self):
        got = parse_records(io.StringIO(render(HARD_ROWS, "csv")), format="csv")
        assert [(r.line_number, r.reason) for r in got.rejects] == [
            (3, "field larger than field limit (131072)"),
            (5, "timestamp '9999-12-31T23:59:59-01:00' is out of range in UTC"),
            (6, "timestamp '0001-01-01T00:00:00+01:00' is out of range in UTC"),
        ]
        assert [r.lat for r in got.records] == [40.5, 40.25, 40.5]
        assert got.lines_read == len(got.records) + len(got.rejects) == 6

    def test_oversized_header_is_format_mismatch(self):
        with pytest.raises(FormatMismatchError, match="unreadable CSV header: field larger"):
            load_timelines(io.StringIO("x" * 200_000 + "\n" + HEADER), format="csv")

    def test_deeply_nested_json_line_is_rejected(self):
        got = parse_records(io.StringIO(render([HARD_ROWS[0], 7, HARD_ROWS[2]], "jsonl")), "jsonl")
        assert [r.line_number for r in got.rejects] == [2]
        assert got.rejects[0].reason.startswith("maximum recursion depth exceeded")
        assert len(got.records) == 2

    def test_line_endings_give_the_same_ingest(self, tmp_path):
        """A CSV corpus whose lines end in ``\\n``, ``\\r\\n`` or a lone ``\\r``
        loads to the same timelines, counts and reject line numbers; a
        quoted ``\\n`` inside a field stays part of its record."""
        lines = [
            HEADER.rstrip("\n"),
            "u1,40.5,-73.9,2014-08-02T21:58:00Z,plain",
            'u1,40.6,-73.9,2014-08-02T22:58:00Z,"two\nlines"',
            "u1,40.7,-73.9,not-a-time,",
            "u2,40.5,-73.9,2014-08-02T21:58:00Z,",
            "u2,40.5,-73.9,2014-08-02T21:58:00Z,again",
            "u1,95.0,-73.9,2014-08-02T23:00:00Z,",
            'u1,40.8,-73.9,2014-08-01T21:58:00Z,"a, ""quoted"" text"',
        ]
        ingests = []
        for name, ending in [("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")]:
            path = tmp_path / f"{name}.csv"
            path.write_bytes("".join(line + ending for line in lines).encode("utf-8"))
            ingests.append(load_timelines(str(path), format="csv"))
        assert ingests[1] == ingests[0] and ingests[2] == ingests[0]
        got = ingests[0]
        assert [r.line_number for r in got.rejects] == [5, 8]
        assert (got.lines_read, got.parsed_records, got.duplicates) == (7, 5, 1)
        assert {uid: len(tl) for uid, tl in got.timelines.items()} == {"u1": 3, "u2": 1}
        assert list(got.timelines["u1"].lats) == [40.8, 40.5, 40.6]

    def test_empty_and_header_only_input(self):
        for text in ("", HEADER):
            got = load_timelines(io.StringIO(text), format="csv")
            assert (got.timelines, got.rejects, got.lines_read, got.duplicates) == ({}, [], 0, 0)

    def test_long_equal_timestamp_run_is_linear(self):
        """5,000 records of one user at one instant, half repeating earlier
        coordinates: same result as the reference, in time linear in the run."""

        def corpus(ts_of):
            lines = [
                f"u1,{40 + (i % 2500) * 1e-4!r},-73.9,{ts_of(i)},"
                for i in range(5000)
            ]
            return HEADER + "\n".join(lines) + "\n"

        one_instant = corpus(lambda i: "2014-08-02T21:58:00Z")
        assert_ingest_matches_reference(one_instant, "csv")
        got = load_timelines(io.StringIO(one_instant), format="csv")
        assert got.duplicates == 2500

        t0 = datetime(2014, 8, 2, tzinfo=timezone.utc)
        distinct = corpus(lambda i: format_timestamp(t0 + timedelta(seconds=i)))

        def best_of_3(text):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                load_timelines(io.StringIO(text), format="csv")
                times.append(time.perf_counter() - start)
            return min(times)

        # A pairwise scan of the run makes ~6M coordinate comparisons and takes
        # tens of times longer than the same records at distinct instants.
        assert best_of_3(one_instant) < 5 * best_of_3(distinct)


def raw_rows_by_json_loads(lines):
    """`_raw_rows(lines, "jsonl", rejects)` as it reads with `json.loads` on
    every line: the rows and the rejects."""
    rows, rejects = [], []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            rejects.append(RejectedLine(lineno, str(exc)))
            continue
        if not isinstance(obj, dict):
            rejects.append(RejectedLine(lineno, "line is not a JSON object"))
            continue
        user_id = obj.get("user_id", "")
        if type(user_id) not in (str, int):
            rejects.append(RejectedLine(lineno, "user_id is not a string or an integer"))
        else:
            rows.append((
                lineno, str(user_id), obj.get("lat"), obj.get("lon"),
                obj.get("timestamp", ""), obj.get("text", ""),
            ))
    return rows, rejects


json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
record_objects = st.fixed_dictionaries({}, optional={
    "user_id": st.sampled_from(["u1", "", 7]) | json_scalars,
    "lat": st.sampled_from([40.5, -0.0]) | json_scalars,
    "lon": st.sampled_from([-73.9, 0.0]) | json_scalars,
    "timestamp": st.sampled_from(TIMESTAMP_FORMS) | json_scalars,
    "text": json_values,
})


@st.composite
def jsonl_texts(draw):
    """JSONL text whose lines may start with a BOM or blanks, carry trailing
    data, end in ``\n``, ``\r\n``, ``\r`` or nothing, or be cut short."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        obj = draw(record_objects | json_values)
        line = json.dumps(obj, ensure_ascii=draw(st.booleans()))
        if draw(st.booleans()):
            line = line[: draw(st.integers(0, len(line)))]
        line = draw(st.sampled_from(["", "", "\ufeff", " ", "\t", " \ufeff"])) + line
        line += draw(st.sampled_from(["", "", " ", "\t", " x", "}", "{}", ",1"]))
        lines.append(line + draw(st.sampled_from(["\n", "\r\n", "\r", ""])))
    return "".join(lines)


GOOD_JSON = json.dumps(
    {"user_id": "u1", "lat": 40.5, "lon": -73.9, "timestamp": TIMESTAMP_FORMS[0]}
)


class TestJsonlDecoding:
    """Lines decoded directly give the rows and rejects `json.loads` gives."""

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(jsonl_texts())
    @example(GOOD_JSON + "\n" + GOOD_JSON + "\r\n" + GOOD_JSON + "\r" + GOOD_JSON)
    @example("\ufeff" + GOOD_JSON + "\n")  # BOM
    @example("  " + GOOD_JSON + "\n\t" + GOOD_JSON + "\r\n")  # leading blanks
    @example(GOOD_JSON + " \n" + GOOD_JSON + "x\n" + GOOD_JSON + "{}\r")  # trailing data
    @example(GOOD_JSON[:-1] + "\n" + GOOD_JSON[:1] + "\r\n\n \r")  # cut short; blank lines
    @example('{"user_id": "u1", "lat": NaN, "lon": -0.0}\n[1]\n"s"\n3 \n')
    def test_matches_json_loads(self, text):
        lines = list(io.StringIO(text, newline=""))
        rejects = []
        rows = list(_raw_rows(lines, "jsonl", rejects))
        expected_rows, expected_rejects = raw_rows_by_json_loads(lines)
        assert repr(rows) == repr(expected_rows)  # repr tells NaN, 0.0 and -0.0 apart
        assert rejects == expected_rejects

    def test_bytes_lines_read_as_json_loads_reads_them(self):
        lines = [GOOD_JSON + "\n", "{broken\n", GOOD_JSON + " \r\n", GOOD_JSON]
        as_text = parse_records(lines, format="jsonl")
        as_bytes = parse_records([line.encode() for line in lines], format="jsonl")
        assert (as_bytes.records, as_bytes.rejects) == (as_text.records, as_text.rejects)
        assert len(as_text.records) == 3 and len(as_text.rejects) == 1


class TestColumnarIngest:
    @pytest.fixture
    def corpus(self, tmp_path, four_zone_map):
        """About 20k records of 100 agents, no agent above 1,000, and 500
        repeated lines."""
        recs, _ = generate(
            SynthConfig(
                seed=48, n_agents=100, zone_map=four_zone_map, anomaly_rate=0.01,
                tweet_cap=1000, od_weights={("alpha", "beta"): 0.6, ("beta", "alpha"): 0.4},
            )
        )
        path = tmp_path / "corpus.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_records_csv(recs + recs[:500], fh)
        return str(path)

    def test_ingest_peaks_under_48_bytes_per_kept_record(self, corpus):
        # A timeline row is 24 bytes of array; a TweetRecord with its
        # datetime and text took about 176 bytes.
        gc.collect()
        tracemalloc.start()
        try:
            ingest = load_timelines(corpus)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = ingest.parsed_records - ingest.duplicates
        assert ingest.duplicates == 500 and kept > 19_000
        assert peak / kept < 48

    def test_extract_path_builds_no_tweet_record(self, corpus, four_zone_map, monkeypatch):
        expected = run_extraction(load_timelines(corpus).timelines, four_zone_map, FilterConfig())

        def refuse(*args, **kwargs):
            raise AssertionError("a TweetRecord was built")

        monkeypatch.setattr("geotrips.records.TweetRecord", refuse)
        monkeypatch.setattr("geotrips.displacement.TweetRecord", refuse)
        ingest = load_timelines(corpus)
        for tl in ingest.timelines.values():
            assert (tl.times.typecode, tl.lats.typecode, tl.lons.typecode) == ("q", "d", "d")
        got = run_extraction(ingest.timelines, four_zone_map, FilterConfig())
        assert got == expected and len(got[0]) > 0


class TestReadTable:
    COLUMNS = ("name", "count")

    def read(self, text, convert=lambda row: (row[0], int(row[1]))):
        return list(read_table(io.StringIO(text), self.COLUMNS, convert, "counts CSV"))

    def test_converts_rows_and_skips_blank_ones(self):
        assert self.read("name,count\na,1\n\n b ,2\n") == [("a", 1), (" b ", 2)]

    def test_header_only_is_empty(self):
        assert self.read(" name , count\n") == []

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "counts CSV:1: expected header 'name,count'"),
            ("name,total\na,1\n", "counts CSV:1: expected header 'name,count'"),
            ("name,count\na,1\nb\n", "counts CSV:3: expected 2 fields, got 1"),
            ("name,count\na,1,2\n", "counts CSV:2: expected 2 fields, got 3"),
            ("name,count\na,x\n", "counts CSV:2: invalid literal for int() with base 10: 'x'"),
            ("name,count\na,1\n" + "b" * 200_000 + ",2\n",
             "counts CSV:3: field larger than field limit (131072)"),
        ],
        ids=["empty", "wrong-header", "short-row", "long-row", "bad-value", "oversized-field"],
    )
    def test_errors_name_the_line(self, text, message):
        with pytest.raises(ValidationError) as exc:
            self.read(text)
        assert str(exc.value) == message

    def test_path_and_named_handle_name_the_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("name,count\na,x\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:2: "):
            list(read_table(str(path), self.COLUMNS, lambda row: int(row[1]), "counts CSV"))
        with open(path, "rb") as fh, pytest.raises(ValidationError) as exc:
            list(read_table(fh, self.COLUMNS, lambda row: int(row[1]), "counts CSV"))
        assert str(exc.value).startswith(f"{path}:2: ")

    @pytest.mark.parametrize("handle", [io.StringIO, io.BytesIO], ids=["text", "binary"])
    def test_closed_handle_is_validation_error_at_line_1(self, handle):
        closed = handle()
        closed.close()
        with pytest.raises(ValidationError) as exc:
            list(read_table(closed, self.COLUMNS, tuple, "counts CSV"))
        assert str(exc.value).rstrip(".") == "counts CSV:1: I/O operation on closed file"

    def test_undecodable_bytes_are_validation_error(self):
        bad = io.BytesIO(b"name,count\n\xff,1\n")
        with pytest.raises(ValidationError) as exc:
            list(read_table(bad, self.COLUMNS, tuple, "counts CSV"))
        assert str(exc.value) == "counts CSV:2: not UTF-8: byte 0xff: invalid start byte"

    @pytest.mark.parametrize(
        "bom, newline",
        [(b"", b"\n"), (b"", b"\r\n"), (b"", b"\r"), (codecs.BOM_UTF8, b"\n")],
        ids=["\n", "\r\n", "\r", "bom"],
    )
    def test_undecodable_byte_names_its_line(self, tmp_path, bom, newline):
        """The line of the bad byte, not of the row the reader stopped at: the
        decoder runs a chunk ahead of the reader.  A handle is read again from
        where it stood, not from its first byte.  A BOM is not a line."""
        body = bom + newline.join([b"name,count"] + [b"a,1"] * 1000 + [b"caf\xe9,2", b"b,3", b""])
        path = tmp_path / "counts.csv"
        path.write_bytes(body)
        reason = "not UTF-8: byte 0xe9: invalid continuation byte"
        with pytest.raises(ValidationError) as exc:
            list(read_table(str(path), self.COLUMNS, tuple, "counts CSV"))
        assert str(exc.value) == f"{path}:1002: {reason}"
        handle = io.BytesIO(b"skipped\n" + body)
        handle.readline()
        with pytest.raises(ValidationError) as exc:
            list(read_table(handle, self.COLUMNS, tuple, "counts CSV"))
        assert str(exc.value) == f"counts CSV:1002: {reason}"

    def test_undecodable_byte_in_a_callers_text_handle_names_the_file(self, tmp_path):
        """A text handle decodes as its caller opened it, so its bytes cannot
        be read again to find the line."""
        path = tmp_path / "counts.csv"
        path.write_bytes(b"name,count\ncaf\xe9,2\n")
        with open(path, encoding="utf-8") as fh, pytest.raises(ValidationError) as exc:
            list(read_table(fh, self.COLUMNS, tuple, "counts CSV"))
        assert str(exc.value) == f"{path}: not UTF-8: byte 0xe9: invalid continuation byte"


class TestWriteTable:
    def test_header_then_rows_each_ended_by_newline(self):
        buf = io.StringIO()
        write_table(buf, ("name", "count"), [("a", 1), ['b, "c"', 2.5], ("", None)])
        assert buf.getvalue() == 'name,count\na,1\n"b, ""c""",2.5\n,\n'

    def test_a_carriage_return_is_quoted_and_reads_back(self, tmp_path):
        """A lone ``\\r`` is quoted as a ``\\n`` is, so a reader does not split
        its row there."""
        rows = [("a\rb", "c\nd"), ("e\r\nf", "")]
        path = tmp_path / "table.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_table(fh, ("x", "y"), rows)
        assert path.read_bytes() == b'x,y\n"a\rb","c\nd"\n"e\r\nf",\n'
        assert list(read_table(str(path), ("x", "y"), tuple, "table CSV")) == rows

    @pytest.mark.parametrize("module", ["csv", "zoneinfo"])
    def test_only_records_imports(self, module):
        """The CSV dialect lives in `read_table`, `write_table` and the corpus
        parser, and the time-zone rule in `resolve_tz`, all in `records`: no
        other module imports `csv` or `zoneinfo`."""
        importers = set()
        for path in sorted(Path(geotrips.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                if any(m.split(".")[0] == module for m in modules):
                    importers.add(path.stem)
        assert importers == {"records"}

    def test_cli_reads_neither_json_nor_timestamps(self):
        """The synth JSON and its timestamps are `synthgen`'s to read: `cli`
        imports neither `read_json` nor anything from `datetime`."""
        path = Path(geotrips.__file__).parent / "cli.py"
        offenders = []
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                offenders += [a.name for a in node.names if a.name.split(".")[0] == "datetime"]
            elif isinstance(node, ast.ImportFrom):
                from_datetime = node.level == 0 and node.module.split(".")[0] == "datetime"
                offenders += [
                    f"{node.module}.{a.name}" for a in node.names
                    if from_datetime or a.name == "read_json"
                ]
        assert offenders == []

    def test_only_records_decodes_input(self):
        """Input bytes become text in `records._open_lines` alone: no other
        module opens a file for reading or names `UnicodeDecodeError`."""
        offenders = set()
        for path in sorted(Path(geotrips.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call) and _opens_for_reading(node):
                    offenders.add((path.stem, "open", node.lineno))
                elif getattr(node, "id", getattr(node, "attr", None)) == "UnicodeDecodeError":
                    offenders.add((path.stem, "UnicodeDecodeError", node.lineno))
        assert {stem for stem, _, _ in offenders} == {"records"}, sorted(offenders)

    def test_only_records_decides_what_a_number_is(self):
        """`records.as_float` is the one number rule: no other function in the
        package calls the builtin `float` or tests a value's class against
        `bool`."""
        offenders = set()
        for path in sorted(Path(geotrips.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            offenders |= {(path.stem, where) for where in _number_tests(tree, "")}
        assert offenders == {("records", "as_float")}, sorted(offenders)

    def test_every_private_name_is_used_in_the_package(self):
        """A private module-level name (``_x``, not ``__x__``) is read
        somewhere in the package outside the statement that defines it:
        code kept only for tests or the bench belongs there, not here."""
        defined: dict[str, str] = {}
        used: set[str] = set()
        for path in sorted(Path(geotrips.__file__).parent.glob("*.py")):
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                    names = {stmt.name}
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    names = {t.id for t in targets if isinstance(t, ast.Name)}
                else:
                    names = set()
                for name in names:
                    if name.startswith("_") and not name.endswith("__"):
                        defined[name] = path.stem
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                        ref = node.id
                    elif isinstance(node, ast.Attribute):
                        ref = node.attr
                    else:
                        continue
                    if ref not in names:
                        used.add(ref)
        assert len(defined) > 30  # the walk found the package's private names
        assert sorted(f"{m}.{n}" for n, m in defined.items() if n not in used) == []


def _number_tests(node: ast.AST, where: str) -> Iterator[str]:
    """The dotted name of the function or class around each call of the
    builtin `float` and each test of a value's class against `bool` (by
    `isinstance`, `issubclass`, `type(x)` or `x.__class__`) under `node`."""
    for child in ast.iter_child_nodes(node):
        func = getattr(child.func, "id", None) if isinstance(child, ast.Call) else None
        if func == "float":
            yield where
        elif func in ("isinstance", "issubclass") and len(child.args) == 2:
            if any(getattr(e, "id", None) == "bool" for e in _elements(child.args[1])):
                yield where
        elif isinstance(child, ast.Compare):
            operands = [e for op in (child.left, *child.comparators) for e in _elements(op)]
            if any(map(_is_class_of, operands)) and any(
                getattr(e, "id", None) == "bool" for e in operands
            ):
                yield where
        scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _number_tests(child, f"{where}.{child.name}".lstrip(".") if scope else where)


def _elements(node: ast.AST) -> list[ast.AST]:
    return list(node.elts) if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]


def _is_class_of(node: ast.AST) -> bool:
    """Whether `node` is ``type(x)`` or ``x.__class__``."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) == "type" and len(node.args) == 1
    return isinstance(node, ast.Attribute) and node.attr == "__class__"


def _opens_for_reading(call: ast.Call) -> bool:
    """Whether `call` is an `open(...)` (or `x.open(...)`) whose mode may read:
    no mode, a mode with ``r`` or ``+``, or a mode that is not a literal."""
    func = call.func
    if getattr(func, "id", getattr(func, "attr", None)) != "open":
        return False
    mode = call.args[1] if len(call.args) > 1 else None
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), mode)
    if mode is None:
        return True
    if not isinstance(mode, ast.Constant) or not isinstance(mode.value, str):
        return True
    return "r" in mode.value or "+" in mode.value


utc_instants = st.datetimes(
    min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30), timezones=st.just(timezone.utc)
)
finite = st.floats(allow_nan=False, allow_infinity=False)
zone_labels = st.none() | st.text(min_size=1, max_size=6)


class TestDisplacementRow:
    @given(st.tuples(
        st.text(min_size=1, max_size=6), finite, finite, finite, finite, utc_instants,
        utc_instants, finite, finite, zone_labels, zone_labels, st.none() | utc_instants,
    ))
    def test_parse_inverts_format(self, row):
        """Format takes the times as epoch microseconds and parse gives them
        back as datetimes: the exact conversion of each instant either way."""
        start, end, crossing = row[5], row[6], row[11]
        fields = (
            *row[:5], to_epoch_us(start), to_epoch_us(end), *row[7:11],
            None if crossing is None else to_epoch_us(crossing),
        )
        (line,) = csv.reader([_format_row(fields, CsvFields())])
        assert _parse_fields(line) == row


ROW_CLASSES = (
    ("records", "TweetRecord"), ("records", "RejectedLine"), ("records", "ParseResult"),
    ("records", "Ingest"), ("geometry", "GeoPoint"), ("geometry", "ZonePolygon"),
    ("zones", "Zone"), ("analytics", "UserProfile"), ("analytics", "GroupPartition"),
    ("analytics", "ODMatrix"), ("analytics", "DistributionComparison"),
    ("synthgen", "GroundTruthTrip"), ("synthgen", "_Trip"), ("displacement", "Displacement"),
)


datetime_us = st.integers(to_epoch_us(DATETIME_MIN), to_epoch_us(DATETIME_MAX))


class TestRecordIsItsRow:
    """An immutable record is a `NamedTuple` of its fields, its times UTC
    epoch microseconds; a datetime is only a view of one."""

    @pytest.mark.parametrize("module, name", ROW_CLASSES, ids=[n for _, n in ROW_CLASSES])
    def test_value_record_is_a_tuple(self, module, name):
        cls = getattr(getattr(geotrips, module), name)
        assert issubclass(cls, tuple) and cls._make(cls._fields) == cls._fields

    @given(st.tuples(
        st.text(min_size=1, max_size=6), finite, finite, datetime_us, st.text(max_size=6),
    ))
    def test_tweet_record(self, row):
        rec = TweetRecord._make(row)
        assert rec == row and rec.timestamp == from_epoch_us(row[3])

    @given(st.tuples(*[st.text(max_size=6)] * 3, datetime_us))
    def test_ground_truth_trip(self, row):
        trip = GroundTruthTrip._make(row)
        assert trip == row and trip.true_crossing_time == from_epoch_us(row[3])

    @given(st.lists(st.tuples(
        st.sampled_from(["u1", "u2"]), st.floats(-90, 90), st.floats(-180, 180), utc_instants,
        st.integers(-(24 * 60 - 1), 24 * 60 - 1),
    ), min_size=1, max_size=12))
    def test_parsed_and_timeline_rows(self, rows):
        """A parsed record holds `to_epoch_us` of the instant read, in any
        offset; a timeline's `records` are its columns under its user id."""
        res = parse_csv("".join(
            f"{uid},{lat!r},{lon!r},{instant.astimezone(timezone(timedelta(minutes=offset)))},\n"
            for uid, lat, lon, instant, offset in rows
        ))
        assert res.rejects == []
        for rec, (uid, lat, lon, instant, _) in zip(res.records, rows, strict=True):
            assert rec == (uid, lat, lon, to_epoch_us(instant), "")
        for uid, tl in build_timelines(res.records).items():
            expected = tuple((uid, lat, lon, t, "") for t, lat, lon in zip(tl.times, tl.lats, tl.lons))
            assert tl.records == expected
            assert all(type(r) is TweetRecord for r in tl.records)


RUN_REPORT_FIELDS = [
    "lines_read", "rejected_lines", "parsed_records", "duplicates_removed", "users_total",
    "users_retained", "users_dropped", "records_in_retained_timelines", "speed_removed_records",
    "displacements_total", "displacements_inter_zone", "displacements_intra_zone",
    "displacements_external_touching", "travelers",
]


def _timeline(user_id="u1", t=1):
    return UserTimeline(user_id, array("q", [t]), array("d", [40.5]), array("d", [-73.9]))


class TestPlainClasses:
    """The four mutable or checked classes that are not rows keep the
    constructor, `==`, `repr`, hashing and assignment rules of the
    dataclasses they replaced."""

    def test_repr(self):
        zeros = "[" + ", ".join(["0"] * 24) + "]"
        assert repr(FilterConfig()) == (
            "FilterConfig(min_tweets=100, max_speed=44.704, time_window=7200.0, "
            "min_displacement_distance=100.0)"
        )
        assert repr(RunReport(lines_read=3, travelers=1)) == "RunReport(" + ", ".join(
            f"{name}={ {'lines_read': 3, 'travelers': 1}.get(name, 0)}" for name in RUN_REPORT_FIELDS
        ) + ")"
        assert repr(TimeOfDayHistogram(direction=("a", None))) == (
            f"TimeOfDayHistogram(direction=('a', None), weekday_counts={zeros}, "
            f"weekend_counts={zeros})"
        )
        assert repr(_timeline()) == (
            "UserTimeline(user_id='u1', times=array('q', [1]), lats=array('d', [40.5]), "
            "lons=array('d', [-73.9]))"
        )

    def test_equality(self):
        assert FilterConfig() == FilterConfig(100, 100 * 0.44704, 7200.0, 100.0)
        assert FilterConfig() != FilterConfig(min_tweets=5)
        assert RunReport(travelers=2) == RunReport(travelers=2) != RunReport(travelers=3)
        assert TimeOfDayHistogram(("a", None)) == TimeOfDayHistogram(direction=("a", None))
        assert TimeOfDayHistogram(("a", None)) != TimeOfDayHistogram(("b", None))
        assert _timeline() == _timeline() != _timeline(t=2)
        assert _timeline() != _timeline(user_id="u2")
        # Another class, or a tuple of the same values, is never equal.
        assert FilterConfig() != (100, 100 * 0.44704, 7200.0, 100.0)
        assert RunReport() != TimeOfDayHistogram(None)

    def test_hashing(self):
        assert hash(FilterConfig()) == hash(FilterConfig())
        assert len({FilterConfig(), FilterConfig(), FilterConfig(min_tweets=5)}) == 2
        for unhashable in (RunReport(), TimeOfDayHistogram(("a", None))):
            with pytest.raises(TypeError):
                hash(unhashable)

    def test_checked_classes_refuse_assignment(self):
        cfg, tl = FilterConfig(), _timeline()
        with pytest.raises(AttributeError):
            cfg.min_tweets = 5
        with pytest.raises(AttributeError):
            tl.times = array("q")
        assert cfg == FilterConfig() and tl == _timeline()
        assert not hasattr(tl, "__dict__") and len(tl) == 1

    def test_filled_in_classes_take_assignment(self):
        report = RunReport()
        report.travelers += 1
        assert report == RunReport(travelers=1)
        hist = TimeOfDayHistogram(("a", None))
        hist.weekday_counts[3] += 1
        assert hist.total == 1

    def test_histograms_share_no_count_list(self):
        a, b = TimeOfDayHistogram(("a", None)), TimeOfDayHistogram(("a", None))
        a.weekday_counts[0] += 1
        a.weekend_counts[1] += 2
        assert b.weekday_counts == b.weekend_counts == [0] * 24
        assert a.weekday_counts is not a.weekend_counts
        assert TimeOfDayHistogram(None, [1] * 24).weekday_counts == [1] * 24

    def test_run_report_takes_only_its_counts(self):
        with pytest.raises(TypeError):
            RunReport(bogus=1)
        assert RunReport(**dict.fromkeys(RUN_REPORT_FIELDS, 2)).travelers == 2

    def test_to_dict_key_order(self):
        d = RunReport(displacements_total=10, travelers=4).to_dict()
        assert list(d) == RUN_REPORT_FIELDS + ["average_displacements_per_traveler"]
        assert d["average_displacements_per_traveler"] == 2.5

    def test_pickle_round_trip(self):
        for value in (FilterConfig(min_tweets=5), RunReport(travelers=1),
                      TimeOfDayHistogram(("a", "b"), [1] * 24), _timeline()):
            assert pickle.loads(pickle.dumps(value)) == value


def _users_reader(source):
    return _profiles_from({}, source)


def _one_displacement_csv() -> str:
    t = datetime(2014, 8, 2, 21, 58, tzinfo=timezone.utc)
    d = Displacement("u1", 40.1, -73.9, 40.1, -73.6, to_epoch_us(t), to_epoch_us(t), 0.0, 1.0)
    buf = io.StringIO()
    write_displacements_csv([d], buf)
    return buf.getvalue()


# Each table reader, with a valid file and a file whose second row is bad.
TABLE_READERS = {
    "displacements": (read_displacements_csv, _one_displacement_csv()),
    "od-rows": (lambda source: list(read_od_rows(source)), _one_displacement_csv()),
    "users": (_users_reader, "user_id,tweet_count\nu1,5\n"),
    "series": (read_series_csv, "bin_label,value\na,0.5\n"),
    "ground-truth": (
        read_ground_truth_csv,
        "user_id,origin_zone,dest_zone,true_crossing_time\nu1,a,b,2014-08-02T21:58:00Z\n",
    ),
}

# load_timelines and parse_records, with a valid corpus and two that raise.
CORPUS_READERS = {"load_timelines": load_timelines, "parse_records": parse_records}
CORPORA = {
    "valid": HEADER + "u1,40.5,0.0,2014-08-02T21:58:00Z,\n",
    "wrong-header": "user,lat,lon,timestamp,text\nu1,40.5,0.0,2014-08-02T21:58:00Z,\n",
    "mostly-rejected": HEADER + "u1,x,0.0,2014-08-02T21:58:00Z,\n",
}


def _handle(text: str, kind: str):
    """`text` as a text handle, a binary handle, or a binary handle that
    starts with a UTF-8 BOM."""
    if kind == "text":
        return io.StringIO(text)
    return io.BytesIO((codecs.BOM_UTF8 if kind == "bom" else b"") + text.encode("utf-8"))


class TestCallerHandlesStayOpen:
    """A reader closes only what it opened itself."""

    @pytest.mark.parametrize("kind", ["text", "binary", "bom"])
    @pytest.mark.parametrize("reader", sorted(TABLE_READERS))
    def test_table_readers(self, reader, kind):
        read, text = TABLE_READERS[reader]
        fh = _handle(text, kind)
        assert read(fh)
        bad = _handle(text + "x,y,z\nmore\n", kind)
        with pytest.raises(ValidationError):
            read(bad)
        gc.collect()
        assert not fh.closed and not bad.closed

    def test_abandoned_stream(self, tmp_path):
        """A walk of `read_od_rows` stopped after one row closes the file the
        reader opened, and leaves a caller's binary handle open and usable."""
        header, row = _one_displacement_csv().splitlines(keepends=True)
        text = header + row * 3
        path = tmp_path / "displacements.csv"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stream = read_od_rows(str(path))
            first = next(stream)
            stream.close()
            del stream
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        handle = io.BytesIO(text.encode())
        stream = read_od_rows(handle)
        assert next(stream) == first
        stream.close()
        del stream
        gc.collect()
        assert not handle.closed
        handle.seek(0)
        assert handle.read() == text.encode()

    @pytest.mark.parametrize("kind", ["text", "binary", "bom"])
    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    @pytest.mark.parametrize("reader", sorted(CORPUS_READERS))
    def test_corpus_readers(self, reader, corpus, kind):
        fh = _handle(CORPORA[corpus], kind)
        if corpus == "valid":
            CORPUS_READERS[reader](fh, format="csv")
        else:
            with pytest.raises(FormatMismatchError):
                CORPUS_READERS[reader](fh, format="csv")
        gc.collect()
        assert not fh.closed


table_text = st.one_of(
    st.text(),
    st.text(alphabet='0123456789.,-+:TZeinfa" \r\n\x00', max_size=200),
)


class TestTableReaderFuzz:
    """Arbitrary input to a table reader returns or raises ValidationError."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(TABLE_READERS)), st.booleans(), table_text)
    def test_text(self, reader, with_header, body):
        read, valid = TABLE_READERS[reader]
        text = valid.splitlines(keepends=True)[0] + body if with_header else body
        try:
            read(io.StringIO(text))
        except ValidationError:
            pass

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.sampled_from(
                    ["u1", "40.1", "-1e309", "x", "", "alpha", "2014-08-02T21:58:00Z",
                     "2014-08-02T21:58:00", "2014-13-02T21:58:00Z", "2014-08-02 21:58:00+01:00"]
                ),
                min_size=12,
                max_size=12,
            ),
            max_size=3,
        )
    )
    def test_projected_displacement_read_matches_full_read(self, rows):
        # Rows of the right width, each field valid for some columns only, so
        # the first bad field decides the error.
        text = _one_displacement_csv() + "".join(",".join(row) + "\n" for row in rows)
        try:
            full = read_displacements_csv(io.StringIO(text))
        except ValidationError as exc:
            with pytest.raises(ValidationError) as projected:
                list(read_od_rows(io.StringIO(text)))
            assert str(projected.value) == str(exc)
        else:
            assert list(read_od_rows(io.StringIO(text))) == [
                (d.user_id, d.origin_zone, d.destination_zone, d.crossing_time_estimate)
                for d in full
            ]

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(TABLE_READERS)), st.binary())
    def test_bytes(self, reader, body):
        read, valid = TABLE_READERS[reader]
        try:
            read(io.BytesIO(valid.splitlines(keepends=True)[0].encode() + body))
        except ValidationError:
            pass

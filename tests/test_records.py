import io
import json
import re
import time
from datetime import datetime, timedelta, timezone
from zoneinfo import ZoneInfo

import pytest
from hypothesis import example, given, settings, strategies as st

from geotrips.errors import FormatMismatchError
from geotrips.records import (
    TweetRecord,
    _parse_utc,
    build_timelines,
    dedupe_records,
    format_timestamp,
    load_timelines,
    parse_records,
    parse_timestamp,
    write_records_csv,
)

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
        assert format_timestamp(dt) == "2014-08-02T21:58:03Z"


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
    def test_matches_parse_timestamp(self, raw):
        assert _outcome(_parse_utc, raw) == _outcome(parse_timestamp, raw)

    def test_legacy_timezone_still_applies(self):
        tz = ZoneInfo("America/New_York")
        assert _parse_utc("8/2/2014 21:58", tz) == parse_timestamp("8/2/2014 21:58", tz)


def make_record(user="u1", lat=40.9, lon=-73.9, ts="2014-08-02T21:58:00Z", text=""):
    return TweetRecord(user, lat, lon, parse_timestamp(ts), text)


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
            TweetRecord(u, lat, lon, datetime.fromtimestamp(ts, timezone.utc), text)
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
        assert tl.records[1] is a and tl.records[2] is b

    @given(
        st.lists(
            st.tuples(st.sampled_from(["u1", "u2", "u3"]), st.integers(0, 50)),
            max_size=50,
        )
    )
    def test_bijective_partition(self, rows):
        recs = [
            TweetRecord(u, 40.0, -74.0, datetime.fromtimestamp(t, timezone.utc), str(i))
            for i, (u, t) in enumerate(rows)
        ]
        tls = build_timelines(recs)
        flattened = [r for tl in tls.values() for r in tl.records]
        assert sorted(r.text for r in flattened) == sorted(r.text for r in recs)
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
# wrong shape, non-numeric, out of range, no user, no UTC offset.
BAD_LINES = {
    "csv": (
        "",
        "   ",
        "u1,oops",
        "u1,40.5,xx,2014-08-02T21:58:00Z,t",
        "u1,95.0,0.0,2014-08-02T21:58:00Z,t",
        ",40.5,0.0,2014-08-02T21:58:00Z,t",
        "u1,40.5,0.0,2014-08-02T21:58:00,t",
    ),
    "jsonl": (
        "",
        "   ",
        "{broken",
        '{"user_id": "u1", "lat": 40.5, "lon": "xx", "timestamp": "2014-08-02T21:58:00Z"}',
        '{"user_id": "u1", "lat": 95.0, "lon": 0.0, "timestamp": "2014-08-02T21:58:00Z"}',
        "[1, 2]",
        '{"user_id": "u1", "lat": 40.5, "lon": 0.0, "timestamp": "2014-08-02T21:58:00"}',
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
    @example([], "csv")
    @example([], "jsonl")
    @example([0, 1], "jsonl")
    def test_matches_stage_composition(self, rows, fmt):
        assert_ingest_matches_reference(render(rows, fmt), fmt)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_mostly_rejected_is_format_mismatch(self, fmt):
        text = render([("u1", 40.5, 0.0, TIMESTAMP_FORMS[0], ""), 3, 4], fmt)
        with pytest.raises(FormatMismatchError):
            load_timelines(io.StringIO(text), format=fmt)

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

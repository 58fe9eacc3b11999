import gc
import io
import json
import re
import time
from datetime import datetime, timedelta, timezone
from zoneinfo import ZoneInfo

import pytest
from hypothesis import example, given, settings, strategies as st

from geotrips.analytics import read_series_csv
from geotrips.cli import _profiles_from
from geotrips.displacement import (
    Displacement,
    read_displacements_csv,
    read_od_rows,
    write_displacements_csv,
)
from geotrips.errors import FormatMismatchError, ValidationError
from geotrips.geometry import GeoPoint
from geotrips.records import (
    TweetRecord,
    _parse_utc,
    build_timelines,
    dedupe_records,
    format_timestamp,
    load_timelines,
    parse_records,
    parse_timestamp,
    read_table,
    write_records_csv,
)
from geotrips.synthgen import read_ground_truth_csv

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


class TestReadTable:
    COLUMNS = ("name", "count")

    def read(self, text, convert=lambda row: (row[0], int(row[1]))):
        return read_table(io.StringIO(text), self.COLUMNS, convert, "counts CSV")

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
            read_table(str(path), self.COLUMNS, lambda row: int(row[1]), "counts CSV")
        with open(path, "rb") as fh, pytest.raises(ValidationError) as exc:
            read_table(fh, self.COLUMNS, lambda row: int(row[1]), "counts CSV")
        assert str(exc.value).startswith(f"{path}:2: ")

    def test_undecodable_bytes_are_validation_error(self):
        # Decoding runs a chunk ahead of the reader, so the line is not checked.
        with pytest.raises(ValidationError, match="^counts CSV:[0-9]+: 'utf-8' codec"):
            read_table(io.BytesIO(b"name,count\n\xff,1\n"), self.COLUMNS, tuple, "counts CSV")


def _users_reader(source):
    return _profiles_from({}, source)


def _one_displacement_csv() -> str:
    t = datetime(2014, 8, 2, 21, 58, tzinfo=timezone.utc)
    d = Displacement("u1", GeoPoint(40.1, -73.9), GeoPoint(40.1, -73.6), t, t, 0.0, 1.0)
    buf = io.StringIO()
    write_displacements_csv([d], buf)
    return buf.getvalue()


# Each table reader, with a valid file and a file whose second row is bad.
TABLE_READERS = {
    "displacements": (read_displacements_csv, _one_displacement_csv()),
    "od-rows": (read_od_rows, _one_displacement_csv()),
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
    return io.StringIO(text) if kind == "text" else io.BytesIO(text.encode("utf-8"))


class TestCallerHandlesStayOpen:
    """A reader closes only what it opened itself."""

    @pytest.mark.parametrize("kind", ["text", "binary"])
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

    @pytest.mark.parametrize("kind", ["text", "binary"])
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
                read_od_rows(io.StringIO(text))
            assert str(projected.value) == str(exc)
        else:
            assert read_od_rows(io.StringIO(text)) == [
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

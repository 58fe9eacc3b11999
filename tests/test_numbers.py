"""The number rule, `records.as_float`, and each reader of a number from outside.

Every reader either reads a value or refuses it with a `GeotripsError` that
names the line, feature or field; none ends in another exception.
"""

import io
import json
import math
from datetime import datetime

import pytest
from hypothesis import example, given, settings, strategies as st

from geotrips.analytics import read_series_csv
from geotrips.cli import main
from geotrips.displacement import DISPLACEMENT_COLUMNS, FilterConfig, read_od_rows
from geotrips.errors import ConfigError, GeotripsError, InvalidGeometryError
from geotrips.ingest import load_timelines
from geotrips.records import RejectedLine, as_float
from geotrips.synthgen import SynthConfig, generate
from geotrips.zones import load_zones
from conftest import feature_collection, square_feature, square_ring

BIG = 10**400  # an integer too large for a float
HUGE = 10**5000  # an integer past Python's int-to-text limit: `repr` refuses it
TOO_LONG = "1" * 4301  # more digits than `json` converts to an int
TWO_ZONES = load_zones(
    feature_collection(square_feature("alpha", 40.0, -74.0), square_feature("beta", 40.0, -73.7))
)
FUZZ = settings(derandomize=True, max_examples=150, deadline=None)


class TestAsFloat:
    @pytest.mark.parametrize(
        "value, expected",
        [(5, 5.0), (-0.0, -0.0), (2**1023, 2.0**1023), ("1.5", 1.5), (" 12 ", 12.0),
         ("1e-400", 0.0), ("1e999", math.inf), ("-Infinity", -math.inf)],
        ids=["int", "minus-zero", "two-to-1023", "text", "blanks", "underflow", "overflow", "-inf"],
    )
    def test_a_number_is_what_float_makes_of_it(self, value, expected):
        number = as_float(value)
        assert type(number) is float and repr(number) == repr(expected)

    def test_nan_is_a_number(self):
        assert math.isnan(as_float("nan")) and math.isnan(as_float(math.nan))

    @pytest.mark.parametrize(
        "value",
        [True, False, BIG, -BIG, 2**1024, None, [1.0], {}, "", "1,5"],
        ids=[
            "true", "false", "big", "minus-big", "two-to-1024", "none", "list", "dict", "empty",
            "comma",
        ],
    )
    def test_anything_else_is_a_value_error(self, value):
        with pytest.raises(ValueError):
            as_float(value)

    def test_text_keeps_the_message_of_float(self):
        with pytest.raises(ValueError, match=r"^could not convert string to float: 'north'$"):
            as_float("north")


GOOD_LINE = '{"user_id": "u1", "lat": 40.5, "lon": -73.9, "timestamp": "2014-03-01T1%d:00:00Z"}'


class TestRefusals:
    """Each value here ended in a traceback, or was taken, before the rule."""

    @pytest.mark.parametrize(
        "value", [str(BIG), f"-{BIG}", "true"], ids=["big", "minus-big", "bool"]
    )
    @pytest.mark.parametrize("field", ["lat", "lon"])
    def test_jsonl_coordinate_that_is_no_number_is_a_reject(self, field, value):
        bad = json.loads(GOOD_LINE % 1)
        bad[field] = "@"
        lines = [GOOD_LINE % 0, json.dumps(bad).replace('"@"', value), GOOD_LINE % 2]
        ingest = load_timelines(io.StringIO("\n".join(lines)), format="jsonl")
        assert ingest.rejects == [RejectedLine(2, "non-numeric coordinates")]
        assert len(ingest.timelines["u1"]) == 2

    def test_jsonl_integer_json_cannot_convert_is_a_reject(self):
        lines = [GOOD_LINE % 0, f'{{"user_id": "u1", "lat": {TOO_LONG}}}', GOOD_LINE % 2]
        ingest = load_timelines(io.StringIO("\n".join(lines)), format="jsonl")
        assert [r.line_number for r in ingest.rejects] == [2]
        assert ingest.rejects[0].reason.startswith("Exceeds the limit (4300 digits)")
        assert len(ingest.timelines["u1"]) == 2

    @pytest.mark.parametrize("index", [0, 1], ids=["lon", "lat"])
    def test_zone_position_too_large_names_the_feature(self, index):
        beta = square_feature("beta", 40.0, -73.7)
        beta["geometry"]["coordinates"][0][2][index] = BIG
        with pytest.raises(InvalidGeometryError) as exc:
            load_zones(feature_collection(square_feature("alpha", 40.0, -74.0), beta))
        assert str(exc.value).startswith("feature 'beta': non-numeric coordinate position [")

    @pytest.mark.parametrize(
        "where, message",
        [
            ("lon", "feature 'beta': non-numeric coordinate position <list holding an int"),
            ("lat", "feature 'beta': non-numeric coordinate position <list holding an int"),
            ("zone_id", "zones document: feature #1 has a zone_id of too many digits: <int of"),
        ],
        ids=["lon", "lat", "zone-id"],
    )
    def test_zone_value_past_the_int_to_text_limit_names_the_feature(self, where, message):
        beta = square_feature("beta", 40.0, -73.7)
        if where == "zone_id":
            beta["properties"]["zone_id"] = HUGE
        else:
            beta["geometry"]["coordinates"][0][2][{"lon": 0, "lat": 1}[where]] = HUGE
        with pytest.raises(GeotripsError) as exc:
            load_zones(feature_collection(square_feature("alpha", 40.0, -74.0), beta))
        assert str(exc.value).startswith(message) and "over 4300 digits" in str(exc.value)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("max_speed", math.inf, "inf is out of range: must be finite and > 0"),
            ("time_window", math.inf, "inf is out of range: must be finite and > 0"),
            ("min_tweets", math.inf, "inf is not a valid int"),
            ("min_displacement_distance", BIG, f"{BIG} is not a valid float"),
        ],
        ids=["speed-inf", "window-inf", "tweets-inf", "distance-big"],
    )
    def test_filter_threshold(self, name, value, message):
        with pytest.raises(ConfigError) as exc:
            FilterConfig(**{name: value})
        assert str(exc.value) == f"{name} = {message}"

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (
                {"od_weights": {("alpha", "beta"): BIG}},
                f"od_weights.alpha.beta = {BIG} is not a valid float",
            ),
            (
                {"od_weights": {("alpha", "beta"): math.nan}},
                "od_weights.alpha.beta = nan is out of range: must be finite and >= 0",
            ),
            (
                {"od_weights": {("alpha", "beta"): 1.0, ("beta", "alpha"): math.inf}},
                "od_weights.beta.alpha = inf is out of range: must be finite and >= 0",
            ),
            (
                {"od_weights": {("alpha", "beta"): HUGE}},
                "od_weights.alpha.beta = <int of over 4300 digits> is not a valid float",
            ),
            ({"gps_noise_sigma": BIG}, f"gps_noise_sigma = {BIG} is not a valid float"),
            ({"tweet_scale": -BIG}, f"tweet_scale = {-BIG} is not a valid float"),
            ({"tweet_scale": HUGE}, "tweet_scale = <int of over 4300 digits> is not a valid float"),
            ({"n_agents": -HUGE}, "n_agents = <negative int of over 4300 digits> is out of range"),
            ({"weekday_schedule": (1,) * 23 + (HUGE,)}, "weekday_schedule = <tuple holding an int"),
            ({"weekday_schedule": (math.nan,) + (1.0,) * 23}, "weekday_schedule = {!r} is out"),
            ({"weekend_schedule": (1,) * 23 + (math.inf,)}, "weekend_schedule = {!r} is out"),
            ({"weekday_schedule": (0,) * 24}, "weekday_schedule = {!r} is out"),
            ({"weekend_schedule": (-1,) + (1,) * 23}, "weekend_schedule = {!r} is out"),
            ({"weekday_schedule": (1e308,) * 24}, "weekday_schedule = {!r} is out"),
            ({"weekday_schedule": (BIG,) * 24}, "weekday_schedule = {!r} is not a valid tuple"),
            ({"period_start": datetime(2014, 3, 1)}, "period_start = {!r} lacks a UTC offset"),
            ({"period_end": datetime(2014, 5, 1)}, "period_end = {!r} lacks a UTC offset"),
            ({"od_weights": [(("alpha", "beta"), 1.0)]}, "od_weights = {!r} is not a dict keyed"),
            ({"od_weights": {"alpha": 1.0}}, "od_weights = {!r} is not a dict keyed"),
            ({"od_weights": {"ab": 1.0}}, "od_weights = {!r} is not a dict keyed"),
            ({"od_weights": {("alpha", "beta", "gamma"): 1}}, "od_weights = {!r} is not a dict keyed"),
            ({"od_weights": {(1, 2): 1.0}}, "od_weights = {!r} is not a dict keyed"),
        ],
        ids=[
            "od-big", "od-nan", "od-inf", "od-huge", "noise-big", "scale-minus-big", "scale-huge",
            "agents-minus-huge", "schedule-huge", "schedule-nan",
            "schedule-inf", "schedule-zero", "schedule-negative", "schedule-sum-overflows",
            "schedule-big", "naive-start", "naive-end", "od-list", "od-key-not-a-pair",
            "od-key-two-letters", "od-key-triple", "od-key-ints",
        ],
    )
    def test_synth_setting(self, four_zone_map, kwargs, message):
        with pytest.raises(ConfigError) as exc:
            SynthConfig(zone_map=four_zone_map, **{"od_weights": {("alpha", "beta"): 1.0}, **kwargs})
        (value,) = kwargs.values()
        assert str(exc.value).startswith(message.format(value))

    @pytest.mark.parametrize(
        "setting, message",
        [
            (f'"gps_noise_sigma": {BIG}', f"gps_noise_sigma = {BIG} is not a valid float"),
            ('"weekday_schedule": [%s]' % ", ".join(["0"] * 24), "weekday_schedule = (0, 0, "),
            (f'"seed": {TOO_LONG}', "Exceeds the limit (4300 digits)"),
            ('"seed": ' + "[" * 100_000, "maximum recursion depth exceeded"),
        ],
        ids=["noise-big", "schedule-zero", "too-many-digits", "too-deep"],
    )
    def test_synth_config_file(self, tmp_path, four_zone_geojson, setting, message, capsys):
        cfg = tmp_path / "synth.json"
        doc = '{"zones": "%s", "od_weights": {"alpha": {"beta": 1}}, %s}'
        cfg.write_text(doc % (four_zone_geojson, setting))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "body", [TOO_LONG, "[" * 100_000], ids=["too-many-digits", "too-deep"]
    )
    def test_zone_map_json_cannot_read_names_the_file(self, tmp_path, body, capsys):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("user_id,lat,lon,timestamp,text\n")
        zones = tmp_path / "zones.geojson"
        zones.write_text(body)
        argv = ["extract", "--input", str(corpus), "--zones", str(zones)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {zones}: ") and err.count("\n") == 1


# Number-aware values: beyond float range, NaN and the infinities, -0.0, an
# underflow, booleans, numeric and other text, and lists or objects.
JSON_NUMBERS = st.sampled_from([
    str(BIG), f"-{BIG}", TOO_LONG, "NaN", "Infinity", "-Infinity", "-0.0", "1e-400", "1e400",
    "true", "false", "null", '"12.5"', '" 7 "', '"nan"', '"1e999"', '"north"', '""', "[1, 2]",
    "[]", '{"a": 1}', "{}",
]) | st.integers(-200, 200).map(str) | st.floats(allow_nan=False, allow_infinity=False).map(repr)
TEXT_NUMBERS = st.sampled_from([
    str(BIG), "nan", "NaN", "inf", "-Infinity", "-0.0", "1e-400", "1e999", "true", "True",
    " 7 ", "1_000", "0x10", "", "[1]", "north", "١٢",
]) | st.integers(-200, 200).map(str) | st.floats().map(repr)
PY_NUMBERS = st.sampled_from([
    BIG, -BIG, HUGE, 2**1024, math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, True, False,
    None, "1.5", "nan", [1.0], {"a": 1.0},
]) | st.integers() | st.floats()


def _ingest_balances(text: str | bytes, format: str, lines: int | None) -> None:
    """`load_timelines` of `text` refuses it with a `GeotripsError`, or counts
    every line once: `lines` (if known) == records + rejects, and records less
    duplicates are the timeline rows."""
    source = io.BytesIO(text) if isinstance(text, bytes) else io.StringIO(text)
    try:
        ingest = load_timelines(source, format=format)
    except GeotripsError:
        return
    assert ingest.lines_read == ingest.parsed_records + len(ingest.rejects)
    assert lines is None or ingest.lines_read == lines
    rows = sum(len(tl) for tl in ingest.timelines.values())
    assert ingest.parsed_records - ingest.duplicates == rows


@st.composite
def corpus_lines(draw, numbers, good, line):
    """1–8 lines of `line % (user, lat, lon, hour)`; each coordinate is `good`
    or one of `numbers`, and users and hours repeat, so lines may be duplicates."""
    out = []
    for _ in range(draw(st.integers(1, 8))):
        lat, lon = (draw(st.sampled_from(good) | numbers) for _ in range(2))
        out.append(line % (draw(st.integers(0, 1)), lat, lon, draw(st.integers(0, 2))))
    return out


class TestEveryReader:
    @FUZZ
    @given(corpus_lines(TEXT_NUMBERS, ["40.5", "-73.9"], "u%d,%s,%s,2014-03-01T1%d:00:00Z,"))
    @example(["u0,40.5,-73.9,2014-03-01T10:00:00Z,", f"u0,{BIG},1,2014-03-01T10:00:00Z,"])
    def test_csv_corpus(self, lines):
        _ingest_balances("user_id,lat,lon,timestamp,text\n" + "\n".join(lines), "csv", len(lines))

    @FUZZ
    @given(corpus_lines(
        JSON_NUMBERS, ["40.5", "-73.9"],
        '{"user_id": "u%d", "lat": %s, "lon": %s, "timestamp": "2014-03-01T1%d:00:00Z"}',
    ))
    @example([GOOD_LINE % 0, '{"user_id": "u1", "lat": %s, "lon": 1, "timestamp": ""}' % BIG])
    def test_jsonl_corpus(self, lines):
        _ingest_balances("\n".join(lines), "jsonl", len(lines))

    @FUZZ
    @given(st.sampled_from(["csv", "jsonl"]), st.booleans(), st.binary(max_size=300))
    def test_corpus_bytes(self, format, header, body):
        """Any bytes, after the CSV header or not; a byte that is not UTF-8
        refuses the whole corpus (ROADMAP item 8)."""
        _ingest_balances(b"user_id,lat,lon,timestamp,text\n" * header + body, format, None)

    @FUZZ
    @given(st.lists(st.tuples(st.integers(0, 9), JSON_NUMBERS), max_size=3))
    @example([(0, str(BIG))])
    @example([(1, TOO_LONG)])
    def test_load_zones(self, replacements):
        """Up to three of the ten coordinates of zone beta's ring replaced in the JSON text."""
        tokens = [repr(x) for pos in square_ring(40.0, -73.7, 0.2) for x in pos]
        for i, token in replacements:
            tokens[i] = token
        ring = ", ".join(f"[{tokens[i]}, {tokens[i + 1]}]" for i in range(0, 10, 2))
        beta = '{"properties": {"zone_id": "beta"}, "geometry": {"type": "Polygon", "coordinates": %s}}'
        alpha = json.dumps(square_feature("alpha", 40.0, -74.0))
        text = '{"type": "FeatureCollection", "features": [%s, %s]}' % (alpha, beta % f"[[{ring}]]")
        try:
            load_zones(io.StringIO(text))
        except GeotripsError:
            pass

    @FUZZ
    @given(
        st.sampled_from(["min_tweets", "max_speed", "time_window", "min_displacement_distance"]),
        PY_NUMBERS,
    )
    @example("max_speed", math.inf)
    @example("min_tweets", BIG)
    @example("time_window", HUGE)
    def test_filter_config(self, name, value):
        """`FilterConfig` and `SynthConfig` take a threshold by one rule: each
        takes it, or both refuse it with the same `ConfigError` text."""
        verdicts = []
        for build in (FilterConfig, lambda **kw: SynthConfig(
            zone_map=TWO_ZONES, od_weights={("alpha", "beta"): 1.0}, **kw
        )):
            try:
                build(**{name: value})
            except ConfigError as exc:
                verdicts.append(str(exc))
            else:
                verdicts.append(None)
        assert verdicts[0] == verdicts[1]
        if verdicts[0] is not None:
            return
        if name == "min_tweets":  # a count: an int of any size
            assert type(value) is int and value > 0
        else:
            assert 0 < as_float(value) < math.inf

    @FUZZ
    @given(
        st.sampled_from([
            "tweet_scale", "tweet_alpha", "trip_fraction", "gps_noise_sigma", "anomaly_rate",
            "time_window", "max_speed", "min_displacement_distance",
            "od", "weekday_schedule", "weekend_schedule",
        ]),
        st.integers(0, 23),
        PY_NUMBERS,
    )
    @example("gps_noise_sigma", 0, BIG)
    @example("gps_noise_sigma", 0, 4485524)  # m: 3 sigma reaches past the pole
    @example("tweet_scale", 0, HUGE)
    @example("od", 0, -HUGE)
    @example("weekday_schedule", 5, HUGE)
    @example("od", 0, math.nan)
    @example("weekday_schedule", 5, math.nan)
    @example("weekend_schedule", 0, -1)
    def test_synth_config(self, name, hour, value):
        """A float field, the weight of one OD pair or one hour of a schedule
        set to `value`; a config that is taken generates a corpus on the globe."""
        kwargs = {
            "zone_map": TWO_ZONES, "n_agents": 1, "tweet_cap": 30,
            "od_weights": {("alpha", "beta"): 0.5, ("beta", "alpha"): 0.5},
        }
        if name == "od":  # the other weight makes the sum 1 where it can
            other = 1 - value if type(value) is float and 0 <= value <= 1 else 0.5
            kwargs["od_weights"] = {("alpha", "beta"): value, ("beta", "alpha"): other}
        elif name.endswith("schedule"):
            kwargs[name] = (1.0,) * hour + (value,) + (1.0,) * (23 - hour)
        else:
            kwargs[name] = value
        try:
            cfg = SynthConfig(**kwargs)
        except GeotripsError:
            return
        records, _ = generate(cfg)
        assert all(-90 <= r.lat <= 90 and -180 <= r.lon <= 180 for r in records)

    @FUZZ
    @given(st.lists(TEXT_NUMBERS, max_size=4))
    @example([str(BIG), "1"])
    def test_compare_series(self, values):
        text = "bin_label,value\n" + "".join(f"b{i},{v}\n" for i, v in enumerate(values))
        try:
            _, read = read_series_csv(io.StringIO(text))
        except GeotripsError:
            return
        assert all(math.isfinite(v) for v in read)

    @FUZZ
    @given(st.lists(st.tuples(st.sampled_from([1, 2, 3, 4, 7, 8]), TEXT_NUMBERS), max_size=3))
    @example([(1, str(BIG))])
    def test_read_od_rows(self, replacements):
        row = [
            "u1", "40.1", "-73.9", "40.4", "-73.6", "2014-03-01T10:00:00Z",
            "2014-03-01T10:30:00Z", "1800.0", "42000.5", "alpha", "delta", "2014-03-01T10:15:00Z",
        ]
        for i, token in replacements:
            row[i] = token
        text = ",".join(DISPLACEMENT_COLUMNS) + "\n" + ",".join(row) + "\n"
        try:
            list(read_od_rows(io.StringIO(text)))
        except GeotripsError:
            pass

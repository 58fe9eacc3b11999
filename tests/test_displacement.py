import csv
import io
import math
import tracemalloc
from array import array
from datetime import datetime, timedelta, timezone
from zoneinfo import ZoneInfo

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import feature_collection, square_feature

from geotrips.analytics import ANY, aggregate
from geotrips.displacement import (
    DISPLACEMENT_COLUMNS,
    Displacement,
    FilterConfig,
    RunReport,
    _scan,
    extract_displacements,
    extract_to_csv,
    filter_active_users,
    label_displacement,
    read_displacements_csv,
    read_od_rows,
    remove_speed_violations,
    run_extraction,
    write_displacements_csv,
)
from geotrips.errors import ConfigError, ValidationError
from geotrips.geometry import GeoPoint, haversine_m
from geotrips.ingest import load_timelines
from geotrips.records import (
    TweetRecord,
    UserTimeline,
    build_timelines,
    format_us,
    from_epoch_us,
    to_epoch_us,
    write_records_csv,
)
from geotrips.synthgen import SynthConfig, generate
from geotrips.zones import EXTERNAL, load_zones
from oracles import is_inter_zone, touches_external

T0 = datetime(2014, 8, 2, 12, 0, tzinfo=timezone.utc)


def rec(minutes=0.0, lat=40.1, lon=-73.9, user="u1"):
    return TweetRecord(user, lat, lon, to_epoch_us(T0 + timedelta(minutes=minutes)), "")


def timeline(*records):
    uid = records[0].user_id if records else "u1"
    return UserTimeline.from_records(uid, sorted(records, key=lambda r: r.time))


class TestFilterConfig:
    def test_defaults_match_parameter_set(self):
        cfg = FilterConfig()
        assert cfg.min_tweets == 100
        assert cfg.max_speed == pytest.approx(44.704)  # 100 mph
        assert cfg.time_window == 7200.0  # 2 h
        assert cfg.min_displacement_distance == 100.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_tweets": 0},
            {"max_speed": -1.0},
            {"time_window": 0.0},
            {"min_displacement_distance": 0.0},
            {"min_tweets": float("nan")},
            {"max_speed": float("nan")},
            {"time_window": float("nan")},
            {"min_displacement_distance": float("nan")},
        ],
    )
    def test_non_positive_fields_rejected(self, kwargs):
        """A NaN `min_tweets` is no int: the type is checked before the range."""
        ((name, value),) = kwargs.items()
        with pytest.raises(ConfigError) as exc:
            FilterConfig(**kwargs)
        if name != "min_tweets":
            assert str(exc.value) == f"{name} = {value!r} is out of range: must be finite and > 0"
        elif type(value) is int:
            assert str(exc.value) == f"{name} = {value!r} is out of range: must be >= 1"
        else:
            assert str(exc.value) == f"{name} = {value!r} is not a valid int"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_tweets": "5"},
            {"time_window": None},
            {"max_speed": True},
            {"min_displacement_distance": False},
        ],
    )
    def test_non_number_fields_rejected(self, kwargs):
        """A bool is not a number here, though `True > 0`."""
        ((name, value),) = kwargs.items()
        with pytest.raises(ConfigError) as exc:
            FilterConfig(**kwargs)
        kind = "int" if name == "min_tweets" else "float"
        assert str(exc.value) == f"{name} = {value!r} is not a valid {kind}"

    @pytest.mark.parametrize("value", [2.5, 0.5, 1.0, True], ids=["2.5", "0.5", "1.0", "bool"])
    def test_min_tweets_that_is_no_int_rejected(self, value):
        """`SynthConfig`'s rule and text: a count is an int, and a bool is none."""
        with pytest.raises(ConfigError) as exc:
            FilterConfig(min_tweets=value)
        assert str(exc.value) == f"min_tweets = {value!r} is not a valid int"
        with pytest.raises(ConfigError) as synth_exc:
            SynthConfig(min_tweets=value)
        assert str(synth_exc.value) == str(exc.value)

    def test_min_tweets_past_the_float_range_accepted(self):
        """An int too large for a float is still a count, as `SynthConfig` takes it."""
        assert FilterConfig(min_tweets=10**400).min_tweets == 10**400


class TestFilterActiveUsers:
    def _timelines(self, counts):
        return {
            uid: timeline(*(rec(minutes=i, user=uid) for i in range(n)))
            for uid, n in counts.items()
        }

    def test_below_threshold_dropped(self):
        tls = self._timelines({"u99": 99, "u100": 100, "u150": 150})
        kept = filter_active_users(tls, FilterConfig())
        assert set(kept) == {"u100", "u150"}

    def test_exactly_at_threshold_retained(self):
        tls = self._timelines({"u": 100})
        assert set(filter_active_users(tls, FilterConfig())) == {"u"}

    def test_empty_map(self):
        assert filter_active_users({}, FilterConfig()) == {}


class TestRemoveSpeedViolations:
    def test_fast_pair_drops_later_record(self):
        # ~200 km in 1 h: ~55.6 m/s > 44.704
        a = rec(0, lat=40.0, lon=-74.0)
        b = rec(60, lat=41.8, lon=-74.0)
        assert haversine_m(a.lat, a.lon, b.lat, b.lon) / 3600 > 44.704
        kept, removed = remove_speed_violations(timeline(a, b), FilterConfig())
        assert list(kept.records) == [a]
        assert removed == [b]

    def test_identical_coordinates_any_gap_kept(self):
        a = rec(0)
        b = rec(0.001)
        kept, removed = remove_speed_violations(timeline(a, b), FilterConfig())
        assert list(kept.records) == [a, b] and removed == []

    def test_same_timestamp_far_apart_drops_later(self):
        a = rec(0, lat=40.0)
        b = rec(0, lat=40.05)  # ~5.6 km, zero time gap
        kept, removed = remove_speed_violations(timeline(a, b), FilterConfig())
        assert list(kept.records) == [a]
        assert removed == [b]

    def test_scan_reevaluates_against_survivor(self):
        # a -> teleport -> back near a: only the teleport goes
        a = rec(0, lat=40.0)
        tele = rec(1, lat=42.0)
        c = rec(2, lat=40.001)
        kept, removed = remove_speed_violations(timeline(a, tele, c), FilterConfig())
        assert list(kept.records) == [a, c]
        assert removed == [tele]

    @given(st.lists(st.tuples(st.floats(0, 600), st.floats(40.0, 42.0)), min_size=2, max_size=25))
    def test_postcondition_no_violating_pair_survives(self, rows):
        cfg = FilterConfig()
        recs = [rec(minutes=m, lat=lat) for m, lat in rows]
        kept, _ = remove_speed_violations(timeline(*recs), cfg)
        for a, b in zip(kept.records, kept.records[1:]):
            dt = (from_epoch_us(b.time) - from_epoch_us(a.time)).total_seconds()
            d = haversine_m(a.lat, a.lon, b.lat, b.lon)
            if dt > 0:
                assert d / dt <= cfg.max_speed
            else:
                assert d <= cfg.min_displacement_distance


def pairing_oracle(records, cfg):
    """Hand-rule oracle: all consecutive pairs with 0 < dt <= window, dist >= cut."""
    out = []
    for i in range(len(records) - 1):
        a, b = records[i], records[i + 1]
        dt = (from_epoch_us(b.time) - from_epoch_us(a.time)).total_seconds()
        dist = haversine_m(a.lat, a.lon, b.lat, b.lon)
        if 0 < dt <= cfg.time_window and dist >= cfg.min_displacement_distance:
            out.append((i, i + 1))
    return out


class TestExtractDisplacements:
    def test_ten_minute_hop_is_one_displacement(self):
        tl = timeline(rec(0, lat=40.0), rec(10, lat=40.05))
        (d,) = extract_displacements(tl, FilterConfig())
        assert d.duration == 600.0
        assert d.distance >= 100.0

    def test_window_exceeded_no_displacement(self):
        tl = timeline(rec(0, lat=40.0), rec(180, lat=40.05))
        assert extract_displacements(tl, FilterConfig()) == []

    def test_sliding_pairs_share_middle_record(self):
        tl = timeline(rec(0, lat=40.0), rec(30, lat=40.05), rec(60, lat=40.10))
        ds = extract_displacements(tl, FilterConfig())
        assert len(ds) == 2
        assert ds[0].destination == ds[1].origin

    @given(
        st.lists(
            st.tuples(st.floats(0, 500), st.floats(40.0, 40.4), st.floats(-74.0, -73.6)),
            max_size=20,
        )
    )
    def test_matches_pairing_oracle(self, rows):
        cfg = FilterConfig()
        tl = timeline(*(rec(minutes=m, lat=lat, lon=lon) for m, lat, lon in rows)) if rows else timeline(rec())
        ds = extract_displacements(tl, cfg)
        expected = pairing_oracle(list(tl.records), cfg)
        assert len(ds) == len(expected)
        for d, (i, j) in zip(ds, expected):
            assert from_epoch_us(d.start) == from_epoch_us(tl.records[i].time)
            assert from_epoch_us(d.end) == from_epoch_us(tl.records[j].time)

    @given(st.lists(st.tuples(st.floats(0, 500), st.floats(40.0, 40.4)), max_size=20))
    def test_shrinking_window_never_adds_displacements(self, rows):
        tl = timeline(*(rec(minutes=m, lat=lat) for m, lat in rows)) if rows else timeline(rec())
        wide = extract_displacements(tl, FilterConfig(time_window=7200))
        narrow = extract_displacements(tl, FilterConfig(time_window=1800))
        assert len(narrow) <= len(wide)

    def test_duration_and_distance_invariants(self):
        cfg = FilterConfig()
        tl = timeline(*(rec(minutes=7 * i, lat=40.0 + 0.03 * i) for i in range(10)))
        for d in extract_displacements(tl, cfg):
            assert 0 < d.duration <= cfg.time_window
            assert d.distance >= cfg.min_displacement_distance


class TestLabelDisplacement:
    def _disp(self, origin, destination, start_h=14, end_h=16):
        start = T0.replace(hour=start_h)
        end = T0.replace(hour=end_h)
        return Displacement(
            "u1", origin.lat, origin.lon, destination.lat, destination.lon,
            to_epoch_us(start), to_epoch_us(end), (end - start).total_seconds(), 5000.0,
        )

    def test_inter_zone_crossing_is_midpoint(self, four_zone_map):
        d = self._disp(GeoPoint(40.1, -73.9), GeoPoint(40.1, -73.6))
        labeled = label_displacement(d, four_zone_map)
        assert labeled.origin_zone == "alpha"
        assert labeled.destination_zone == "beta"
        assert from_epoch_us(labeled.crossing) == T0.replace(hour=15)

    def test_intra_zone_crossing_is_start(self, four_zone_map):
        d = self._disp(GeoPoint(40.05, -73.95), GeoPoint(40.15, -73.85))
        labeled = label_displacement(d, four_zone_map)
        assert labeled.origin_zone == labeled.destination_zone == "alpha"
        assert from_epoch_us(labeled.crossing) == T0.replace(hour=14)

    def test_unzoned_destination_is_external(self, four_zone_map):
        d = self._disp(GeoPoint(40.1, -73.9), GeoPoint(20.0, -73.9))
        labeled = label_displacement(d, four_zone_map)
        assert labeled.destination_zone == "EXTERNAL"
        assert EXTERNAL in (labeled.origin_zone, labeled.destination_zone)


class TestRunExtraction:
    def _corpus(self, four_zone_map, n_users=3, n_recs=120):
        # users hop alpha <-> beta every 30 minutes
        recs = []
        for u in range(n_users):
            for i in range(n_recs):
                lat, lon = (40.1, -73.9) if i % 2 == 0 else (40.1, -73.6)
                recs.append(
                    TweetRecord(f"user{u}", lat, lon, to_epoch_us(T0 + timedelta(minutes=30 * i)), "")
                )
        return build_timelines(recs)

    def test_all_users_below_threshold_yields_nothing(self, four_zone_map):
        tls = self._corpus(four_zone_map, n_recs=10)
        ds, report = run_extraction(tls, four_zone_map, FilterConfig())
        assert ds == []
        assert report.users_dropped == report.users_total == 3
        assert report.travelers == 0

    def test_counts_and_arithmetic(self, four_zone_map):
        tls = self._corpus(four_zone_map)
        ds, report = run_extraction(tls, four_zone_map, FilterConfig())
        report.lines_read = report.parsed_records = 360
        report.validate()
        assert report.displacements_total == len(ds) == 3 * 119
        assert report.displacements_inter_zone == report.displacements_total
        assert report.travelers == 3

    def test_canonical_order_and_worker_invariance(self, four_zone_map):
        tls = self._corpus(four_zone_map, n_users=5)
        d1, _ = run_extraction(tls, four_zone_map, FilterConfig(), workers=1)
        d3, _ = run_extraction(tls, four_zone_map, FilterConfig(), workers=3)
        assert d1 == d3
        keys = [(d.user_id, d.start) for d in d1]
        assert keys == sorted(keys)


# Sites for the fused-scan equivalence test: inside alpha, ~100 m north of it,
# ~0.1 m from it, inside beta, inside delta, between the squares (no zone),
# and ~500 km away (a teleport the speed filter removes at every gap below).
HOME = (40.1, -73.9)
NORTH = (40.1009, -73.9)
SITES = (HOME, NORTH, (40.100001, -73.9), (40.1, -73.6), (40.4, -73.6), (40.25, -73.75),
         (43.5, -70.0))
BETA = 3
# Gaps in microseconds: zero, sub-second and odd-microsecond, the exact
# speed-limit gap for HOME -> beta (900 s), exactly the window and one past it.
GAPS_US = (0, 1, 333_333, 45_000_000, 601_000_001, 900_000_000, 1_800_000_003,
           7_200_000_000, 7_200_000_001, 10_800_000_000)
FUSED_ZONES = load_zones(
    feature_collection(
        square_feature("alpha", 40.0, -74.0),
        square_feature("beta", 40.0, -73.7),
        square_feature("gamma", 40.3, -74.0),
        square_feature("delta", 40.3, -73.7),
    )
)
# HOME -> NORTH lies exactly at the distance floor and HOME -> beta in 900 s
# exactly at the speed limit.
FUSED_CFG = FilterConfig(
    min_tweets=3,
    max_speed=haversine_m(*HOME, *SITES[BETA]) / 900.0,
    time_window=7200.0,
    min_displacement_distance=haversine_m(*HOME, *NORTH),
)

site_st = st.integers(0, len(SITES) - 1)
user_st = st.tuples(site_st, st.lists(st.tuples(st.sampled_from(GAPS_US), site_st), max_size=14))


def drawn_timelines(users):
    """Timelines of `user_st` draws, inserted out of sorted order."""
    timelines = {}
    for i, (first, steps) in enumerate(users):
        uid = f"u{len(users) - i}"
        t = T0
        recs = [TweetRecord(uid, *SITES[first], to_epoch_us(t), "")]
        for gap_us, site in steps:
            t += timedelta(microseconds=gap_us)
            recs.append(TweetRecord(uid, *SITES[site], to_epoch_us(t), ""))
        timelines[uid] = UserTimeline.from_records(uid, recs)
    return timelines


def stage_composition(timelines, zs, cfg):
    """The reference: the public stages composed user by user."""
    out, removed = [], 0
    active = filter_active_users(timelines, cfg)
    for uid in sorted(active):
        kept, dropped = remove_speed_violations(active[uid], cfg)
        out.extend(label_displacement(d, zs) for d in extract_displacements(kept, cfg))
        removed += len(dropped)
    return out, removed


class TestFusedScan:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(user_st, min_size=1, max_size=4))
    @example(
        [
            (
                0,  # HOME
                [
                    (0, 2),  # zero-gap near repeat: kept
                    (0, BETA),  # zero-gap far repeat: removed
                    (7_200_000_000, BETA),  # gap exactly the window
                    (45_000_000, 6),  # teleport: removed
                    (45_000_000, 6),  # and again
                    (1_800_000_003, 5),  # odd microseconds, to no zone
                    (900_000_000, 0),
                    (7_200_000_001, 1),  # one microsecond past the window
                    (1, 0),  # removed
                    (0, 1),  # zero gap, zero distance: kept, no displacement
                    (45_000_000, 0),  # exactly at the distance floor
                    (900_000_000, BETA),  # exactly at the speed limit
                ],
            ),
            (6, [(10_800_000_000, 6), (0, 0), (333_333, 6)]),  # teleport survivor first
            (0, [(45_000_000, 1)]),  # below min_tweets
        ]
    )
    def test_run_extraction_matches_stage_composition(self, users):
        timelines = drawn_timelines(users)
        got, report = run_extraction(timelines, FUSED_ZONES, FUSED_CFG)
        expected, removed = stage_composition(timelines, FUSED_ZONES, FUSED_CFG)
        assert got == expected
        assert report.speed_removed_records == removed
        # The streamed rows are the written list's, and the report is the same.
        written, streamed = io.StringIO(newline=""), io.StringIO(newline="")
        write_displacements_csv(got, written)
        assert extract_to_csv(timelines, FUSED_ZONES, FUSED_CFG, streamed) == report
        assert streamed.getvalue() == written.getvalue()
        assert (
            report.displacements_total, report.displacements_inter_zone,
            report.displacements_external_touching, report.travelers,
        ) == (
            len(got), sum(map(is_inter_zone, got)),
            sum(map(touches_external, got)), len({d.user_id for d in got}),
        )


# Metres per degree of latitude on the package's sphere: a pair `d / M_PER_DEG`
# degrees apart along a meridian is `d` metres apart, to the haversine's rounding.
M_PER_DEG = 6_371_000.0 * math.pi / 180.0


def pair_timelines(*steps, start=(40.1, -73.9)):
    """One user's timeline from `start`: each step is (gap in µs, metres north,
    metres east), the east offset scaled by the latitude's cosine."""
    lat, lon = start
    t = to_epoch_us(T0)
    recs = [TweetRecord("u", lat, lon, t, "")]
    for gap_us, north, east in steps:
        t += gap_us
        lat += north / M_PER_DEG
        lon += east / (M_PER_DEG * math.cos(math.radians(lat)))
        lon = lon - 360.0 if lon > 180.0 else lon + 360.0 if lon < -180.0 else lon
        recs.append(TweetRecord("u", lat, lon, t, ""))
    return {"u": UserTimeline.from_records("u", recs)}


def assert_scan_matches_stages(timelines, cfg):
    got, report = run_extraction(timelines, FUSED_ZONES, cfg)
    expected, removed = stage_composition(timelines, FUSED_ZONES, cfg)
    assert got == expected
    assert report.speed_removed_records == removed
    return got, removed


class TestPairBound:
    """`_scan` skips the haversine of a pair whose planar bound settles both of
    its tests; every product must stay that of the stages, which always
    compute it.  `FilterConfig()`: 100 m floor, 44.704 m/s, 7,200 s window."""

    CFG = FilterConfig(min_tweets=2)

    @pytest.mark.parametrize("metres, displaced", [
        (99.8, 0),  # the bound settles it
        (99.99, 0),  # the bound (0.1% over) does not
        (100.0, 1),
        (100.01, 1),
    ])
    def test_pairs_at_the_distance_floor(self, metres, displaced):
        got, _ = assert_scan_matches_stages(pair_timelines((60_000_000, metres, 0.0)), self.CFG)
        assert len(got) == displaced

    @pytest.mark.parametrize("metres, gap_us, removed", [
        # 1,000 m takes 22.3693629... s at 44.704 m/s, and 99 m 2.2145669... s
        (1000.0, 22_369_363, 0),
        (1000.0, 22_369_362, 1),
        (99.0, 2_214_567, 0),
        (99.0, 2_214_566, 1),
        (99.0, 2_300_000, 0),  # the bound settles it
    ])
    def test_speeds_just_under_and_over_the_limit(self, metres, gap_us, removed):
        _, got_removed = assert_scan_matches_stages(
            pair_timelines((gap_us, metres, 0.0)), self.CFG
        )
        assert got_removed == removed

    def test_the_bound_skips_the_haversine_only_where_it_settles_the_pair(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return haversine_m(*args)

        monkeypatch.setattr("geotrips.displacement.haversine_m", counted)
        # 50 m in a minute settles both tests; 150 m is a displacement, and
        # 50 m in a second may break the speed limit.
        for metres, gap_us, computed in ((50.0, 60_000_000, 0), (150.0, 60_000_000, 1),
                                         (50.0, 1_000_000, 1)):
            calls.clear()
            run_extraction(pair_timelines((gap_us, metres, 0.0)), FUSED_ZONES, self.CFG)
            assert len(calls) == computed

    @pytest.mark.parametrize("gap_us, metres, removed, displaced", [
        (7_200_000_000, 150.0, 0, 1),  # the gap exactly the window
        (7_200_000_001, 150.0, 0, 0),  # one microsecond past it
        (7_200_000_001, 50.0, 0, 0),
        (0, 50.0, 0, 0),  # a zero gap within the floor is kept
        (0, 150.0, 1, 0),  # and past it removed
        (0, 0.0, 0, 0),
    ])
    def test_window_edges_and_zero_gaps(self, gap_us, metres, removed, displaced):
        got, got_removed = assert_scan_matches_stages(
            pair_timelines((gap_us, metres, 0.0)), self.CFG
        )
        assert (got_removed, len(got)) == (removed, displaced)

    def test_pair_across_the_antimeridian(self):
        # 22 m apart on the sphere, 359.9998 degrees apart in the plane
        timelines = pair_timelines((60_000_000, 0.0, 22.0), (60_000_000, 0.0, 22.0),
                                   start=(0.0, 179.9999))
        assert timelines["u"].lons[1] < 0.0 < timelines["u"].lons[0]
        got, removed = assert_scan_matches_stages(timelines, self.CFG)
        assert (len(got), removed) == (0, 0)

    def test_pair_more_than_a_degree_apart(self):
        # 1.5 degrees north in 2 h: 23 m/s, within the window
        got, removed = assert_scan_matches_stages(
            pair_timelines((7_200_000_000, 1.5 * M_PER_DEG, 0.0)), self.CFG
        )
        assert (len(got), removed) == (1, 0)

    @pytest.mark.parametrize("cfg", [
        FilterConfig(min_tweets=2, min_displacement_distance=1e-6),
        FilterConfig(min_tweets=2, time_window=1e9),
        FilterConfig(min_tweets=2, min_displacement_distance=1e-6, time_window=1e9,
                     max_speed=0.5),
    ])
    def test_other_settings(self, cfg):
        steps = [(gap, north, east) for gap in (0, 1, 2_000_000, 7_200_000_001, 10**15)
                 for north, east in ((0.0, 0.0), (1e-4, 0.0), (0.5, 0.5), (99.0, 0.0),
                                     (3000.0, 400.0), (0.0, 2e5))]
        assert_scan_matches_stages(pair_timelines(*steps), cfg)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        max_speed=st.floats(1.0, 100.0),
        window_us=st.integers(60_000_000, 7_200_000_000),
        min_dist=st.floats(1.0, 1000.0),
        start=st.sampled_from([(40.1, -73.9), (40.25, -73.6), (0.0, 179.9995), (64.0, 10.0)]),
        steps=st.lists(
            st.tuples(
                # the gap: zero, the window, a microsecond either side of it, or any
                st.sampled_from(("zero", "window", "under", "over", "any")),
                st.integers(1, 2 * 7_200_000_000),
                st.booleans(),  # the distance near the floor, or near the speed limit
                st.floats(0.99, 1.01),  # times that threshold
                st.floats(0.0, 2.0 * math.pi),  # bearing
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_pairs_near_the_thresholds_match_the_stages(
        self, max_speed, window_us, min_dist, start, steps
    ):
        cfg = FilterConfig(min_tweets=2, max_speed=max_speed, time_window=window_us / 1e6,
                           min_displacement_distance=min_dist)
        pairs = []
        edges = {"zero": 0, "window": window_us, "under": window_us - 1, "over": window_us + 1}
        for kind, any_gap, near_floor, factor, bearing in steps:
            gap = edges.get(kind, any_gap)
            metres = factor * (min_dist if near_floor or gap == 0 else max_speed * gap / 1e6)
            pairs.append((gap, metres * math.cos(bearing), metres * math.sin(bearing)))
        assert_scan_matches_stages(pair_timelines(*pairs, start=start), cfg)


class TestDisplacementIsItsRow:
    """A `Displacement` is the row the scan yields; `origin` and `destination`
    are views of the row's fields."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.lists(user_st, min_size=1, max_size=4))
    def test_run_extraction_returns_the_scan_rows(self, users):
        timelines = drawn_timelines(users)
        got, _ = run_extraction(timelines, FUSED_ZONES, FUSED_CFG)
        scanned = list(_scan(timelines, FUSED_ZONES, FUSED_CFG, RunReport()))
        assert [tuple(d) for d in got] == scanned
        unlabeled = [d for tl in timelines.values() for d in extract_displacements(tl, FUSED_CFG)]
        for d in got + unlabeled:
            assert isinstance(d, tuple) and type(d) is Displacement
            assert d.origin == GeoPoint(d.origin_lat, d.origin_lon)
            assert d.destination == GeoPoint(d.dest_lat, d.dest_lon)
        assert all(d.crossing is not None for d in got)
        assert all(d.crossing is None for d in unlabeled)


class TestScanTimes:
    """The scan's times are epoch microseconds, each equal to the datetime
    `label_displacement` computes."""

    ALPHA, BETA, ALPHA_TOO = (40.1, -73.9), (40.1, -73.6), (40.15, -73.85)
    CFG = FilterConfig(min_tweets=1, max_speed=1e12)  # no speed removals

    def timeline(self, start: int, end: int, dest: tuple[float, float]) -> UserTimeline:
        return UserTimeline(
            "u1", array("q", [start, end]), array("d", [self.ALPHA[0], dest[0]]),
            array("d", [self.ALPHA[1], dest[1]]),
        )

    def scan(self, start: int, end: int, dest: tuple[float, float]):
        tl = self.timeline(start, end, dest)
        return list(_scan({"u1": tl}, FUSED_ZONES, self.CFG, RunReport()))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.integers(
            to_epoch_us(datetime(1, 1, 1, tzinfo=timezone.utc)),
            to_epoch_us(datetime(9999, 12, 31, 21, tzinfo=timezone.utc)),
        ),
        st.integers(1, 7_200_000_000),
        st.booleans(),
    )
    @example(0, 1, True)  # odd gaps: the half gap ends in half a microsecond
    @example(0, 3, True)
    @example(-1, 1_800_000_003, True)
    @example(0, 2, True)  # even gaps
    @example(-1, 7_200_000_000, True)
    @example(0, 1, False)
    def test_times_equal_the_datetime_arithmetic(self, start, gap, inter_zone):
        ((*_, t0, t1, duration, _, origin, dest, crossing),) = self.scan(
            start, start + gap, self.BETA if inter_zone else self.ALPHA_TOO
        )
        assert (origin != dest) == inter_zone
        assert (t0, t1) == (start, start + gap)
        d0 = from_epoch_us(start)
        expected = d0 + timedelta(seconds=duration / 2.0) if inter_zone else d0
        assert crossing == to_epoch_us(expected)

    def test_displacement_from_the_epoch_writes_its_crossing(self):
        """The epoch is 0 microseconds: a crossing there is not a missing one."""
        ((*_, crossing),) = fields = self.scan(0, 600_000_000, self.ALPHA_TOO)
        assert crossing == 0
        written = io.StringIO(newline="")
        write_displacements_csv(map(Displacement._make, fields), written)
        (row,) = written.getvalue().splitlines()[1:]
        assert row.endswith(",alpha,alpha,1970-01-01T00:00:00Z")
        streamed = io.StringIO(newline="")
        tl = self.timeline(0, 600_000_000, self.ALPHA_TOO)
        extract_to_csv({"u1": tl}, FUSED_ZONES, self.CFG, streamed)
        assert streamed.getvalue() == written.getvalue()
        (read,) = read_displacements_csv(io.StringIO(written.getvalue(), newline=""))
        assert read.crossing is not None
        assert from_epoch_us(read.crossing) == from_epoch_us(0)


class TestRowQuoting:
    def test_ids_are_written_as_the_csv_module_writes_them(self):
        """A user id holding a comma, a quote, a line feed and a leading blank,
        and a zone id holding a comma and a quote: each line is what
        `csv.writer` writes for the same fields, with ``\\n`` line ends, and
        reads back unchanged."""
        uid, zone = ' j. "smith",\nny', 'alpha, "old"'
        zs = load_zones(feature_collection(
            square_feature(zone, 40.0, -74.0), square_feature("beta", 40.0, -73.7)
        ))
        tl = UserTimeline(uid, array("q", [0, 600_000_000]), array("d", [40.1, 40.1]),
                          array("d", [-73.9, -73.6]))
        cfg = FilterConfig(min_tweets=1)
        written = io.StringIO(newline="")
        extract_to_csv({uid: tl}, zs, cfg, written)
        (d,), _ = run_extraction({uid: tl}, zs, cfg)
        assert (d.user_id, d.origin_zone, d.destination_zone) == (uid, zone, "beta")
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(DISPLACEMENT_COLUMNS)
        writer.writerow([
            d.user_id, *map(repr, d[1:5]), format_us(d.start), format_us(d.end),
            repr(d.duration), repr(d.distance), d.origin_zone, d.destination_zone,
            format_us(d.crossing),
        ])
        assert written.getvalue() == expected.getvalue().replace("\r\n", "\n")
        assert read_displacements_csv(io.StringIO(written.getvalue(), newline="")) == [d]


class TestStreamingExtraction:
    def test_peak_memory_does_not_grow_with_displacements(self, tmp_path, four_zone_map):
        """Streaming holds no displacement: the tracemalloc peak of writing
        ~6,000 of them to a file stays under 64 B each.  Building the list
        first and then writing it peaks at about 570 B each."""
        recs, _ = generate(
            SynthConfig(
                seed=48, n_agents=200, zone_map=four_zone_map, anomaly_rate=0.01,
                tweet_cap=1000, od_weights={("alpha", "beta"): 0.6, ("beta", "alpha"): 0.4},
            )
        )
        corpus = io.StringIO(newline="")
        write_records_csv(recs, corpus)
        del recs
        corpus.seek(0)
        timelines = load_timelines(corpus).timelines
        del corpus
        with open(tmp_path / "displacements.csv", "w", encoding="utf-8", newline="") as fh:
            tracemalloc.start()
            try:
                report = extract_to_csv(timelines, four_zone_map, FilterConfig(), fh)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert report.displacements_total > 5_000
        assert peak / report.displacements_total < 64


class TestStreamingAnalysis:
    def test_peak_memory_does_not_grow_with_rows(self, tmp_path):
        """`analyze` holds no displacement row: the tracemalloc peak of
        aggregating 6,000 rows streamed from a file stays under 64 B each.
        Reading the rows into a list first peaks at about 240 B each."""
        zones = ["alpha", "beta", EXTERNAL, None]
        rows = 6_000
        disps = []
        for i in range(rows):
            start = to_epoch_us(T0 + timedelta(minutes=37 * i))
            o, t = zones[i % 4], zones[i // 4 % 4]
            disps.append(Displacement(
                f"u{i % 40}", 40.1, -73.9, 40.1, -73.6, start, start + 1_800_000_000,
                1800.0, 25_000.0, o, t, start + 900_000_000 if o and t and o != t else None,
            ))
        path = tmp_path / "displacements.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_displacements_csv(disps, fh)
        del disps
        tz = ZoneInfo("America/New_York")
        directions = [(ANY, ANY), ("alpha", ANY), (ANY, "alpha")]
        tracemalloc.start()
        try:
            _, hists, per_user = aggregate(
                read_od_rows(str(path)), tz, directions, include_external=True
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(per_user.values()) == rows and hists[0].total > 0
        assert peak / rows < 64


class TestRunReport:
    def test_average_is_total_over_travelers(self):
        r = RunReport(displacements_total=10, travelers=4)
        assert r.average_displacements_per_traveler == 2.5

    def test_reference_scale_fixture_displays_14_5(self):
        r = RunReport(displacements_total=96_471, travelers=6_638)
        assert r.formatted_average() == "14.5"

    def test_zero_travelers(self):
        assert RunReport().average_displacements_per_traveler == 0.0

    def test_validate_catches_imbalance(self):
        r = RunReport(lines_read=10, parsed_records=5, rejected_lines=4)
        with pytest.raises(ValidationError):
            r.validate()

    # A balanced report: 10 lines, 2 rejected, 1 duplicate, 6 of the 7 kept
    # records in 2 retained users' timelines, 2 removed for speed, 3
    # displacements (1 touching EXTERNAL) by 2 travelers.
    BALANCED = dict(
        lines_read=10, rejected_lines=2, parsed_records=8, duplicates_removed=1,
        users_total=3, users_retained=2, users_dropped=1, records_in_retained_timelines=6,
        speed_removed_records=2, displacements_total=3, displacements_inter_zone=2,
        displacements_intra_zone=1, displacements_external_touching=1, travelers=2,
    )

    def test_balanced_report_validates(self):
        RunReport(**self.BALANCED).validate()
        # A library caller of run_extraction leaves the parse fields at zero.
        RunReport(**{**self.BALANCED, "lines_read": 0, "rejected_lines": 0,
                     "parsed_records": 0, "duplicates_removed": 0}).validate()

    @pytest.mark.parametrize(
        "changes",
        [
            {"displacements_external_touching": 4},
            {"travelers": 4, "users_retained": 5, "users_total": 6, "users_dropped": 1},
            {"duplicates_removed": 9},  # also leaves fewer kept records than retained ones
            {"records_in_retained_timelines": 8},
        ],
        ids=["external-above-total", "travelers-above-displacements",
             "duplicates-above-parsed", "retained-above-kept"],
    )
    def test_validate_catches_broken_conservation(self, changes):
        with pytest.raises(ValidationError, match="inconsistent run report"):
            RunReport(**{**self.BALANCED, **changes}).validate()


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
# Every instant in `datetime`'s range, as epoch microseconds.
utc_instants = st.integers(
    to_epoch_us(datetime.min.replace(tzinfo=timezone.utc)),
    to_epoch_us(datetime.max.replace(tzinfo=timezone.utc)),
)
zone_labels = st.none() | st.sampled_from(["alpha", "beta, west", EXTERNAL])


class TestReadDisplacementsCsv:
    @pytest.mark.parametrize(
        "field, value, reason",
        [
            (1, "north", "could not convert string to float: 'north'"),
            (5, "yesterday", "unparseable timestamp 'yesterday'"),
            (None, None, "expected 12 fields, got 5"),
        ],
        ids=["non-numeric-coordinate", "bad-timestamp", "short-row"],
    )
    def test_malformed_row_names_its_line(self, tmp_path, field, value, reason):
        t0 = to_epoch_us(T0)
        d = Displacement(
            "u1", 40.1, -73.9, 40.1, -73.6, t0, t0 + 3_600_000_000, 3600.0, 25_000.0,
            "alpha", "beta", t0,
        )
        path = tmp_path / "displacements.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_displacements_csv([d, d], fh)
        assert len(read_displacements_csv(str(path))) == 2
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        if field is None:
            cells = cells[:5]
        else:
            cells[field] = value
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError) as exc:
            read_displacements_csv(str(path))
        assert str(exc.value) == f"{path}:3: {reason}"

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        st.lists(
            st.builds(
                Displacement,
                user_id=st.text(st.characters(blacklist_categories=("Cs",))) | st.sampled_from(
                    ["smith, j", 'say "hi"', "two\nlines", "cr\rlf\r\n"]
                ),
                origin_lat=finite_floats,
                origin_lon=finite_floats,
                dest_lat=finite_floats,
                dest_lon=finite_floats,
                start=utc_instants,
                end=utc_instants,
                duration=finite_floats,
                distance=finite_floats,
                origin_zone=zone_labels,
                destination_zone=zone_labels,
                crossing=st.none() | utc_instants,
            ),
            max_size=5,
        )
    )
    def test_write_then_read_returns_the_input(self, displacements):
        buf = io.StringIO(newline="")
        write_displacements_csv(displacements, buf)
        assert read_displacements_csv(io.StringIO(buf.getvalue(), newline="")) == displacements

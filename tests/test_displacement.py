import io
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import feature_collection, square_feature

from geotrips.displacement import (
    Displacement,
    FilterConfig,
    RunReport,
    extract_displacements,
    filter_active_users,
    label_displacement,
    read_displacements_csv,
    remove_speed_violations,
    run_extraction,
    write_displacements_csv,
)
from geotrips.errors import ValidationError
from geotrips.geometry import GeoPoint, haversine_m
from geotrips.records import TweetRecord, UserTimeline, build_timelines
from geotrips.zones import EXTERNAL, load_zones

T0 = datetime(2014, 8, 2, 12, 0, tzinfo=timezone.utc)


def rec(minutes=0.0, lat=40.1, lon=-73.9, user="u1"):
    return TweetRecord(user, lat, lon, T0 + timedelta(minutes=minutes), "")


def timeline(*records):
    uid = records[0].user_id if records else "u1"
    return UserTimeline(uid, tuple(sorted(records, key=lambda r: r.timestamp)))


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
        with pytest.raises(ValidationError):
            FilterConfig(**kwargs)


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
            dt = (b.timestamp - a.timestamp).total_seconds()
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
        dt = (b.timestamp - a.timestamp).total_seconds()
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
            assert d.start_time == tl.records[i].timestamp
            assert d.end_time == tl.records[j].timestamp

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
            "u1", origin, destination, start, end,
            (end - start).total_seconds(), 5000.0,
        )

    def test_inter_zone_crossing_is_midpoint(self, four_zone_map):
        d = self._disp(GeoPoint(40.1, -73.9), GeoPoint(40.1, -73.6))
        labeled = label_displacement(d, four_zone_map)
        assert labeled.origin_zone == "alpha"
        assert labeled.destination_zone == "beta"
        assert labeled.crossing_time_estimate == T0.replace(hour=15)

    def test_intra_zone_crossing_is_start(self, four_zone_map):
        d = self._disp(GeoPoint(40.05, -73.95), GeoPoint(40.15, -73.85))
        labeled = label_displacement(d, four_zone_map)
        assert labeled.origin_zone == labeled.destination_zone == "alpha"
        assert labeled.crossing_time_estimate == d.start_time

    def test_unzoned_destination_is_external(self, four_zone_map):
        d = self._disp(GeoPoint(40.1, -73.9), GeoPoint(20.0, -73.9))
        labeled = label_displacement(d, four_zone_map)
        assert labeled.destination_zone == "EXTERNAL"
        assert labeled.touches_external


class TestRunExtraction:
    def _corpus(self, four_zone_map, n_users=3, n_recs=120):
        # users hop alpha <-> beta every 30 minutes
        recs = []
        for u in range(n_users):
            for i in range(n_recs):
                lat, lon = (40.1, -73.9) if i % 2 == 0 else (40.1, -73.6)
                recs.append(
                    TweetRecord(f"user{u}", lat, lon, T0 + timedelta(minutes=30 * i), "")
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
        keys = [(d.user_id, d.start_time) for d in d1]
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
        timelines = {}
        for i, (first, steps) in enumerate(users):
            uid = f"u{len(users) - i}"  # insertion order is not sorted order
            t = T0
            recs = [TweetRecord(uid, *SITES[first], t, "")]
            for gap_us, site in steps:
                t += timedelta(microseconds=gap_us)
                recs.append(TweetRecord(uid, *SITES[site], t, ""))
            timelines[uid] = UserTimeline(uid, tuple(recs))
        got, report = run_extraction(timelines, FUSED_ZONES, FUSED_CFG)
        expected, removed = stage_composition(timelines, FUSED_ZONES, FUSED_CFG)
        assert got == expected
        assert report.speed_removed_records == removed


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


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
utc_datetimes = st.datetimes(timezones=st.just(timezone.utc))
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
        d = Displacement(
            "u1", GeoPoint(40.1, -73.9), GeoPoint(40.1, -73.6),
            T0, T0 + timedelta(hours=1), 3600.0, 25_000.0, "alpha", "beta", T0,
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
                origin=st.builds(GeoPoint, finite_floats, finite_floats),
                destination=st.builds(GeoPoint, finite_floats, finite_floats),
                start_time=utc_datetimes,
                end_time=utc_datetimes,
                duration=finite_floats,
                distance=finite_floats,
                origin_zone=zone_labels,
                destination_zone=zone_labels,
                crossing_time_estimate=st.none() | utc_datetimes,
            ),
            max_size=5,
        )
    )
    def test_write_then_read_returns_the_input(self, displacements):
        buf = io.StringIO(newline="")
        write_displacements_csv(displacements, buf)
        assert read_displacements_csv(io.StringIO(buf.getvalue(), newline="")) == displacements

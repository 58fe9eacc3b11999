import io
import math
from datetime import datetime, timedelta, timezone, tzinfo
from zoneinfo import ZoneInfo

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from geotrips.analytics import (
    ANY,
    UserProfile,
    aggregate,
    aggregate_od,
    classify_groups,
    compare_distributions,
    normalize,
    od_matrix,
    read_series_csv,
    time_of_day_histogram,
    write_histogram_csv,
    write_od_csv,
)
from geotrips.displacement import Displacement
from geotrips.errors import EmptyODError, ValidationError
from geotrips.geometry import GeoPoint

UTC = timezone.utc


def disp(origin_zone, dest_zone, crossing, user="u1"):
    start = crossing - timedelta(minutes=30)
    end = crossing + timedelta(minutes=30)
    return Displacement(
        user, GeoPoint(40.1, -73.9), GeoPoint(40.1, -73.6),
        start, end, 3600.0, 25000.0,
        origin_zone=origin_zone, destination_zone=dest_zone,
        crossing_time_estimate=crossing if origin_zone != dest_zone else start,
    )


def at(day, hour, minute=0):
    # 2014-08-04 is a Monday
    return datetime(2014, 8, day, hour, minute, tzinfo=UTC)


class TestClassifyGroups:
    def _profiles(self, n, disp_per_user=2):
        return [UserProfile(f"u{i:04d}", 1000 - i, disp_per_user) for i in range(n)]

    def test_top_one_percent_of_1000(self):
        part = classify_groups(self._profiles(1000), cutoff=0.01)
        assert len(part.high_group) == 10
        assert part.high_group == [f"u{i:04d}" for i in range(10)]

    def test_ceiling_with_minimum_one(self):
        part = classify_groups(self._profiles(50), cutoff=0.01)
        assert len(part.high_group) == 1

    def test_boundary_tie_broken_by_user_id(self):
        profiles = [
            UserProfile("b", 100, 1),
            UserProfile("a", 100, 1),
            UserProfile("c", 50, 1),
        ]
        part = classify_groups(profiles, cutoff=0.3)
        assert part.high_group == ["a"]

    def test_partition_covers_all_users(self):
        part = classify_groups(self._profiles(123), cutoff=0.05)
        assert len(part.high_group) == math.ceil(0.05 * 123)
        assert len(part.high_group) + len(part.low_group) == 123
        assert not set(part.high_group) & set(part.low_group)

    def test_share_of_displacements(self):
        profiles = [
            UserProfile("big", 500, 8),
            UserProfile("mid", 100, 1),
            UserProfile("small", 10, 1),
        ]
        part = classify_groups(profiles, cutoff=0.2)
        assert part.high_group == ["big"]
        assert part.share_of_displacements_high == pytest.approx(0.8)

    def test_scale_invariance(self):
        profiles = [UserProfile(f"u{i}", (i * 37) % 90 + 1, i % 5) for i in range(200)]
        base = classify_groups(profiles, cutoff=0.03)
        scaled = classify_groups(
            [UserProfile(p.user_id, p.tweet_count * 7, p.displacement_count) for p in profiles],
            cutoff=0.03,
        )
        assert base.high_group == scaled.high_group
        assert base.low_group == scaled.low_group

    def test_empty_profiles_error(self):
        with pytest.raises(ValidationError):
            classify_groups([], cutoff=0.01)

    def sort_and_cut_oracle(self, profiles, cutoff):
        order = sorted(profiles, key=lambda p: (-p.tweet_count, p.user_id))
        k = max(1, math.ceil(cutoff * len(order)))
        return [p.user_id for p in order[:k]]

    def test_against_independent_oracle(self):
        import random

        rng = random.Random(99)
        profiles = [
            UserProfile(f"user{rng.randrange(10_000):05d}x{i}", rng.randrange(1, 2000), rng.randrange(50))
            for i in range(500)
        ]
        for cutoff in (0.01, 0.013, 0.5):
            part = classify_groups(profiles, cutoff=cutoff)
            assert part.high_group == self.sort_and_cut_oracle(profiles, cutoff)


class TestTimeOfDay:
    def test_tuesday_morning_goes_to_weekday_bin_8(self):
        h = time_of_day_histogram([disp("alpha", "beta", at(5, 8, 30))], UTC)
        assert h.weekday_counts[8] == 1
        assert sum(h.weekday_counts) == 1 and sum(h.weekend_counts) == 0
        assert h.weekday_fracs[8] == 1.0

    def test_saturday_2359_goes_to_weekend_bin_23(self):
        h = time_of_day_histogram([disp("alpha", "beta", at(9, 23, 59))], UTC)
        assert h.weekend_counts[23] == 1
        assert h.weekend_fracs[23] == 1.0

    def test_no_matches_all_zero_unnormalized(self):
        h = time_of_day_histogram([], UTC)
        assert h.total == 0
        assert h.weekday_fracs == [0.0] * 24

    def test_mixed_schedule_matches_hand_enumeration(self):
        ds = [
            disp("alpha", "beta", at(4, 7)),    # Mon 07
            disp("alpha", "beta", at(4, 7, 40)),
            disp("alpha", "beta", at(5, 17)),   # Tue 17
            disp("alpha", "beta", at(9, 11)),   # Sat 11
            disp("beta", "alpha", at(10, 11)),  # Sun 11
        ]
        h = time_of_day_histogram(ds, UTC)
        assert h.weekday_counts[7] == 2
        assert h.weekday_counts[17] == 1
        assert h.weekend_counts[11] == 2
        assert h.weekday_fracs[7] == pytest.approx(2 / 3)

    def test_direction_filter_excludes_reverse(self):
        ds = [disp("alpha", "beta", at(4, 9)), disp("beta", "alpha", at(4, 10))]
        h = time_of_day_histogram(ds, UTC, origin="alpha", destination="beta")
        assert h.total == 1 and h.weekday_counts[9] == 1
        h_from = time_of_day_histogram(ds, UTC, origin="beta")
        assert h_from.total == 1 and h_from.weekday_counts[10] == 1

    def test_intra_zone_excluded_by_default(self):
        ds = [disp("alpha", "alpha", at(4, 9)), disp("alpha", "beta", at(4, 10))]
        assert time_of_day_histogram(ds, UTC).total == 1
        assert time_of_day_histogram(ds, UTC, include_intra=True).total == 2

    def test_timezone_shifts_bin_and_day(self):
        # Sat 03:00 UTC = Fri 23:00 New York
        ny = ZoneInfo("America/New_York")
        h = time_of_day_histogram([disp("alpha", "beta", at(9, 3))], ny)
        assert h.weekday_counts[23] == 1
        assert sum(h.weekend_counts) == 0

    def test_histogram_conservation(self):
        ds = [disp("alpha", "beta", at(4 + i % 6, (3 * i) % 24)) for i in range(40)]
        h = time_of_day_histogram(ds, UTC)
        assert sum(h.weekday_counts) + sum(h.weekend_counts) == 40

    def test_user_filter(self):
        ds = [disp("alpha", "beta", at(4, 9), user="a"), disp("alpha", "beta", at(4, 9), user="b")]
        assert time_of_day_histogram([d for d in ds if d.user_id == "a"], UTC).total == 1
        assert time_of_day_histogram(ds, UTC).total == 2


class TestAggregateOD:
    def test_single_displacement_is_proportion_one(self):
        m = aggregate_od([disp("alpha", "beta", at(4, 9))])
        assert m.zone_ids == ["alpha", "beta"]
        assert m.proportions[0][1] == 1.0

    def test_counts_conserved_and_proportions_sum_to_one(self):
        ds = (
            [disp("alpha", "beta", at(4, 9))] * 3
            + [disp("beta", "alpha", at(4, 9))] * 5
            + [disp("gamma", "alpha", at(4, 9))] * 2
        )
        m = aggregate_od(ds)
        assert m.total == 10
        assert sum(sum(row) for row in m.proportions) == pytest.approx(1.0, abs=1e-9)

    def test_intra_zone_flag(self):
        ds = [disp("alpha", "alpha", at(4, 9)), disp("alpha", "beta", at(4, 9))]
        assert aggregate_od(ds).total == 1
        m = aggregate_od(ds, include_intra=True)
        assert m.total == 2
        assert m.counts[0][0] == 1

    def test_external_flag(self):
        ds = [disp("alpha", "EXTERNAL", at(4, 9)), disp("alpha", "beta", at(4, 9))]
        assert aggregate_od(ds).total == 1
        m = aggregate_od(ds, include_external=True)
        assert m.total == 2
        assert m.zone_ids[-1] == "EXTERNAL"

    def test_empty_od_is_error(self):
        with pytest.raises(EmptyODError):
            aggregate_od([])
        with pytest.raises(EmptyODError):
            aggregate_od([disp("alpha", "alpha", at(4, 9))])  # intra only


def _window(start, days):
    return st.datetimes(
        min_value=start, max_value=start + timedelta(days=days), timezones=st.just(UTC)
    )


# Crossings anywhere in 2014, and in the days around the New York and Lord Howe
# clock changes (Lord Howe shifts by 30 minutes).
CROSSINGS = st.none() | st.one_of(
    _window(datetime(2014, 1, 1), 365),
    _window(datetime(2014, 3, 8), 2),
    _window(datetime(2014, 11, 1), 2),
    _window(datetime(2014, 4, 5), 2),
    _window(datetime(2014, 10, 4), 2),
)
OD_ROWS = st.lists(
    st.tuples(
        st.sampled_from(["u1", "u2", "u3"]),
        st.sampled_from([None, "alpha", "beta", "EXTERNAL"]),
        st.sampled_from([None, "alpha", "beta", "EXTERNAL"]),
        CROSSINGS,
    ),
    max_size=40,
)
TIMEZONES = st.sampled_from([UTC, ZoneInfo("America/New_York"), ZoneInfo("Australia/Lord_Howe")])


def _displacement(user_id, origin_zone, dest_zone, crossing):
    start = crossing or datetime(2014, 8, 4, tzinfo=UTC)
    return Displacement(
        user_id, GeoPoint(40.1, -73.9), GeoPoint(40.1, -73.6), start, start, 0.0, 0.0,
        origin_zone, dest_zone, crossing,
    )


class _CountingTZ(tzinfo):
    """UTC-5 that counts the conversions into it."""

    def __init__(self):
        self.conversions = 0

    def utcoffset(self, dt):
        return timedelta(hours=-5)

    def dst(self, dt):
        return timedelta(0)

    def fromutc(self, dt):
        self.conversions += 1
        return dt + timedelta(hours=-5)


class TestSingleWalk:
    @pytest.mark.parametrize("include_intra", [False, True], ids=["inter", "intra"])
    @pytest.mark.parametrize("include_external", [False, True], ids=["internal", "external"])
    @settings(max_examples=150, deadline=None)
    @given(
        rows=OD_ROWS,
        tz=TIMEZONES,
        focal=st.sampled_from(["alpha", "EXTERNAL", "omega"]),  # omega labels no row
    )
    def test_walk_and_public_functions_match_per_call_reference(
        self, rows, tz, focal, include_intra, include_external
    ):
        ds = [_displacement(*row) for row in rows]
        directions = [(ANY, ANY), (focal, ANY), (ANY, focal), ("alpha", "beta")]
        pair_counts, hists, per_user = aggregate(
            rows, tz, directions, include_intra, include_external
        )
        want_hists = [
            oracles.histogram_per_call(ds, tz, origin, destination, include_intra)
            for origin, destination in directions
        ]
        assert hists == want_hists
        assert [
            time_of_day_histogram(ds, tz, origin, destination, include_intra)
            for origin, destination in directions
        ] == want_hists
        assert per_user == oracles.displacements_per_user(ds)
        try:
            want_od = oracles.od_matrix_per_call(ds, include_intra, include_external)
        except EmptyODError:
            assert pair_counts == {}
            with pytest.raises(EmptyODError):
                aggregate_od(ds, include_intra, include_external)
            return
        assert od_matrix(pair_counts) == want_od
        assert aggregate_od(ds, include_intra, include_external) == want_od

    def test_each_binned_crossing_is_converted_once(self):
        tz = _CountingTZ()
        rows = [
            ("u1", "alpha", "beta", at(4, 9)),     # in all three histograms
            ("u1", "beta", "alpha", at(4, 10)),    # in all only
            ("u2", "alpha", "gamma", at(9, 11)),   # in all and from alpha
            ("u2", "alpha", "alpha", at(4, 12)),   # intra: not binned
            ("u3", "alpha", "beta", None),         # no crossing: not binned
        ]
        directions = [(ANY, ANY), ("alpha", ANY), (ANY, "beta")]
        _, hists, per_user = aggregate(rows, tz, directions)
        assert tz.conversions == 3
        assert [h.total for h in hists] == [3, 2, 1]
        assert hists[0].weekday_counts[4] == 1  # 09:00 UTC is 04:00 at UTC-5
        assert hists[1].weekend_counts[6] == 1  # Saturday 06:00
        assert per_user == {"u1": 2, "u2": 2, "u3": 1}


class TestCompareDistributions:
    def test_identical_series(self):
        s = [0.1, 0.2, 0.3, 0.4]
        c = compare_distributions(s, s)
        assert c.l1_distance == 0.0
        assert c.pearson_r == pytest.approx(1.0)

    def test_disjoint_one_hot_series(self):
        c = compare_distributions([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        assert c.l1_distance == pytest.approx(2.0)

    def test_hand_built_four_bin_pair(self):
        a = [0.1, 0.4, 0.3, 0.2]
        b = [0.25, 0.25, 0.25, 0.25]
        c = compare_distributions(a, b)
        # |0.15| + |0.15| + |0.05| + |0.05| by hand
        assert c.l1_distance == pytest.approx(0.4)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            compare_distributions([0.5, 0.5], [1.0, 0.0, 0.0])

    def test_unnormalized_rejected(self):
        with pytest.raises(ValidationError):
            compare_distributions([0.5, 0.6], [0.5, 0.5])

    @given(
        st.lists(st.floats(0.001, 1.0), min_size=2, max_size=12),
        st.lists(st.floats(0.001, 1.0), min_size=2, max_size=12),
    )
    def test_symmetry(self, raw_a, raw_b):
        n = min(len(raw_a), len(raw_b))
        a, b = normalize(raw_a[:n]), normalize(raw_b[:n])
        assert compare_distributions(a, b).l1_distance == pytest.approx(
            compare_distributions(b, a).l1_distance
        )


class TestCsvIO:
    def test_od_csv_layout(self):
        m = aggregate_od([disp("alpha", "beta", at(4, 9))] * 3 + [disp("beta", "alpha", at(4, 9))])
        buf = io.StringIO()
        write_od_csv(m, buf, kind="counts")
        lines = buf.getvalue().splitlines()
        assert lines[0] == "origin,alpha,beta"
        assert lines[1] == "alpha,0,3"
        assert lines[2] == "beta,1,0"

    def test_histogram_csv_layout(self):
        h = time_of_day_histogram([disp("alpha", "beta", at(4, 9))], UTC)
        buf = io.StringIO()
        write_histogram_csv(h, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "hour,weekday_count,weekend_count,weekday_frac,weekend_frac"
        assert len(lines) == 25
        assert lines[10] == "9,1,0,1.0,0.0"

    def test_series_round_trip(self):
        buf = io.StringIO("bin_label,value\n07,0.5\n08,0.5\n")
        labels, values = read_series_csv(buf)
        assert labels == ["07", "08"] and values == [0.5, 0.5]

    def test_series_bad_header(self):
        with pytest.raises(ValidationError):
            read_series_csv(io.StringIO("a,b\n1,2\n"))

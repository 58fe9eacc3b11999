import hashlib
import io
import random

import pytest

from geotrips.displacement import FilterConfig, run_extraction
from geotrips.errors import ConfigError
from geotrips.geometry import GeoPoint
from geotrips.records import build_timelines, dedupe_records, write_records_csv
from geotrips.synthgen import (
    SynthConfig,
    _zone_interior_point,
    generate,
    read_ground_truth_csv,
    write_ground_truth_csv,
)
from geotrips.zones import load_zones
from conftest import feature_collection, square_feature, square_ring

TWO_ZONE_OD = {("alpha", "beta"): 0.6, ("beta", "alpha"): 0.4}


def small_cfg(four_zone_map, **kwargs):
    defaults = dict(seed=3, n_agents=20, zone_map=four_zone_map, od_weights=TWO_ZONE_OD)
    defaults.update(kwargs)
    return SynthConfig(**defaults)


class TestConfigValidation:
    def test_single_zone_map_rejected(self):
        zs = load_zones(feature_collection(square_feature("only", 40.0, -74.0)))
        with pytest.raises(ConfigError, match="2 zones"):
            SynthConfig(seed=0, zone_map=zs, od_weights={})

    def test_weights_must_sum_to_one(self, four_zone_map):
        with pytest.raises(ConfigError, match="sum to 1"):
            small_cfg(four_zone_map, od_weights={("alpha", "beta"): 0.5})

    def test_intra_zone_weight_rejected(self, four_zone_map):
        with pytest.raises(ConfigError):
            small_cfg(four_zone_map, od_weights={("alpha", "alpha"): 1.0})

    def test_range_boundaries_are_accepted(self, four_zone_map):
        cfg = small_cfg(
            four_zone_map, n_agents=1, tweet_cap=1, min_tweets=1, tweet_floor=0,
            gps_noise_sigma=0.0, trip_fraction=1.0, anomaly_rate=1.0, tweet_scale=1e-9,
        )
        generate(cfg)  # and the generator runs at them

    def test_unknown_zone_rejected(self, four_zone_map):
        with pytest.raises(ConfigError, match="unknown zone"):
            small_cfg(four_zone_map, od_weights={("alpha", "nowhere"): 1.0})

    @pytest.mark.parametrize(
        "name, value, kind",
        [
            ("n_agents", "5", "int"),
            ("n_agents", True, "int"),
            ("tweet_scale", False, "float"),
            ("weekday_schedule", None, "tuple"),
            ("weekend_schedule", [1.0] * 24, "tuple"),
            ("weekday_schedule", ("a",) * 24, "tuple"),
            ("weekday_schedule", (1,) * 23 + (True,), "tuple"),
            ("period_start", "2014-01-01", "datetime"),
        ],
        ids=[
            "agents-string", "agents-bool", "scale-bool", "schedule-none", "schedule-list",
            "schedule-strings", "schedule-bool", "period-string",
        ],
    )
    def test_setting_of_the_wrong_type_is_config_error(self, four_zone_map, name, value, kind):
        """A library caller gets the check the synth config's reader gets."""
        with pytest.raises(ConfigError) as exc:
            small_cfg(four_zone_map, **{name: value})
        assert str(exc.value) == f"{name} = {value!r} is not a valid {kind}"

    @pytest.mark.parametrize("weight", ["1", True, None])
    def test_od_weight_of_the_wrong_type_is_config_error(self, four_zone_map, weight):
        with pytest.raises(ConfigError) as exc:
            small_cfg(four_zone_map, od_weights={("beta", "alpha"): 0.0, ("alpha", "beta"): weight})
        assert str(exc.value) == f"od_weights.alpha.beta = {weight!r} is not a valid float"

    def test_zone_map_is_required(self):
        with pytest.raises(ConfigError) as exc:
            SynthConfig()
        assert str(exc.value) == "SynthConfig.zone_map is required"

    @pytest.mark.parametrize(
        "zone_map", ["zones.geojson", 5, {"type": "FeatureCollection", "features": []}],
        ids=["path", "int", "geojson-dict"],
    )
    def test_zone_map_that_is_no_zone_set_is_config_error(self, zone_map):
        with pytest.raises(ConfigError) as exc:
            SynthConfig(zone_map=zone_map, od_weights=TWO_ZONE_OD)
        assert str(exc.value) == f"zone_map = {zone_map!r} is not a valid ZoneSet"

    @pytest.mark.parametrize("tz", ["Mars/Base", "", 5, None])
    def test_bad_timezone_is_checked_first(self, tz):
        """Before the zone map, so the config reader needs no check of its own."""
        with pytest.raises(ConfigError) as exc:
            SynthConfig(tz=tz)
        assert str(exc.value) == f"tz = {tz!r} is not a valid timezone"


class TestZoneInteriorPoint:
    """The anchor comes from the outer ring's tight bounds, not its padded
    ones: the centre and the sampling range are the floats the corpora were
    built from."""

    def test_centre_of_the_tight_bounds(self):
        zs = load_zones(feature_collection(square_feature("sq", 40.0, -74.0, 0.2)))
        p = _zone_interior_point(zs, "sq", random.Random(1))
        assert p == GeoPoint((40.0 + 40.2) / 2, (-74.0 + -73.8) / 2)

    def test_samples_within_the_tight_bounds(self):
        # a square whose centre lies in a hole: the centre is not in the zone
        zs = load_zones(
            feature_collection(
                {
                    "type": "Feature",
                    "properties": {"zone_id": "ring"},
                    "geometry": {
                        "type": "Polygon",
                        "coordinates": [
                            square_ring(40.0, -74.0, 0.2),
                            square_ring(40.02, -73.98, 0.16),
                        ],
                    },
                }
            )
        )
        p = _zone_interior_point(zs, "ring", random.Random(7))
        draws = random.Random(7)
        while True:
            q = GeoPoint(draws.uniform(40.0, 40.2), draws.uniform(-74.0, -73.8))
            if zs.label_point(q) == "ring":
                break
        assert p == q


class TestGenerate:
    def test_same_seed_byte_identical(self, four_zone_map):
        outputs = []
        for _ in range(2):
            records, trips = generate(small_cfg(four_zone_map))
            rec_buf, gt_buf = io.StringIO(), io.StringIO()
            write_records_csv(records, rec_buf)
            write_ground_truth_csv(trips, gt_buf)
            outputs.append((rec_buf.getvalue(), gt_buf.getvalue()))
        assert outputs[0] == outputs[1]

    def test_different_seed_differs(self, four_zone_map):
        r1, _ = generate(small_cfg(four_zone_map, seed=1))
        r2, _ = generate(small_cfg(four_zone_map, seed=2))
        assert r1 != r2

    def test_zero_anomaly_rate_means_zero_speed_removals(self, four_zone_map):
        records, _ = generate(small_cfg(four_zone_map, anomaly_rate=0.0))
        timelines = build_timelines(dedupe_records(records)[0])
        _, report = run_extraction(timelines, four_zone_map, FilterConfig())
        assert report.speed_removed_records == 0

    def test_trip_set_exactly_recovered(self, four_zone_map):
        records, trips = generate(small_cfg(four_zone_map, anomaly_rate=0.02))
        timelines = build_timelines(dedupe_records(records)[0])
        displacements, _ = run_extraction(timelines, four_zone_map, FilterConfig())
        inter = [d for d in displacements if d.is_inter_zone]
        assert len(inter) == len(trips)
        got = {(d.user_id, d.origin_zone, d.destination_zone) for d in inter}
        expected = {(t.user_id, t.origin_zone, t.destination_zone) for t in trips}
        assert got == expected

    def test_agents_below_activity_threshold_excluded_from_truth(self, four_zone_map):
        # everyone gets ~40 tweets: nobody clears the default threshold
        cfg = small_cfg(four_zone_map, tweet_floor=40, tweet_scale=0.001, min_tweets=100)
        records, trips = generate(cfg)
        assert records and trips == []

    def test_heavy_tail_concentrates_trips(self, four_zone_map):
        cfg = small_cfg(four_zone_map, n_agents=300, tweet_alpha=0.8, seed=5)
        _, trips = generate(cfg)
        per_user: dict[str, int] = {}
        for t in trips:
            per_user[t.user_id] = per_user.get(t.user_id, 0) + 1
        counts = sorted(per_user.values(), reverse=True)
        top = counts[: max(1, len(counts) // 100)]
        # asserted against the generator's own counts, no fixed share assumed
        assert sum(top) > sum(counts) * len(top) / len(counts)

    @pytest.mark.parametrize(
        "near_pole, changes, found",
        [
            (False, {"gps_noise_sigma": 1e300}, "gps_noise_sigma = 1e+300 with anomaly_rate = 0.0"),
            (True, {"anomaly_rate": 1.0}, "gps_noise_sigma = 0.0 with anomaly_rate = 1.0"),  # ~88.6 + 2 degrees
        ],
        ids=["noise", "anomaly-jump-near-a-pole"],
    )
    def test_a_record_off_the_globe_is_config_error(self, four_zone_map, near_pole, changes, found):
        """`extract` would reject the record, so `SynthConfig` refuses a config whose
        noise or anomaly jump can put one off the globe."""
        polar = load_zones(
            feature_collection(square_feature("alpha", 88.5, 0.0), square_feature("beta", 88.5, 1.0))
        )
        zs = polar if near_pole else four_zone_map
        cfg = dict(seed=0, n_agents=1, tweet_cap=30, gps_noise_sigma=0.0)
        assert generate(small_cfg(zs, **cfg))[0]  # on the globe without the change
        with pytest.raises(ConfigError) as exc:
            small_cfg(zs, **{**cfg, **changes})
        assert str(exc.value) == found + (
            " can put a record of zone_map off the globe, past latitude ±90 or longitude ±180"
        )

    def test_bytes_are_pinned(self):
        """The files `synth` writes for a fixed config, pinned by digest: a
        change to the generator or the writers that moves one byte fails here."""
        zs = load_zones(
            feature_collection(square_feature("alpha", 40.0, -74.0), square_feature("beta", 40.0, -73.7))
        )
        cfg = SynthConfig(seed=7, n_agents=3, zone_map=zs, od_weights=TWO_ZONE_OD, anomaly_rate=0.05)
        records, trips = generate(cfg)
        rec_buf, gt_buf = io.StringIO(), io.StringIO()
        write_records_csv(records, rec_buf)
        write_ground_truth_csv(trips, gt_buf)
        assert (len(records), len(trips)) == (1489, 164)
        assert hashlib.sha256(rec_buf.getvalue().encode()).hexdigest() == (
            "c3421167b15e93ed8484d76a63859dccdf2d4e4ddfad0962fbff84e6fc094f65"
        )
        assert hashlib.sha256(gt_buf.getvalue().encode()).hexdigest() == (
            "84dd3f29ea00a7ecc4ae9746a91fa97f16024996ea88eb1a3fc0380c711fefba"
        )

    def test_ground_truth_csv_round_trip(self, four_zone_map):
        _, trips = generate(small_cfg(four_zone_map))
        buf = io.StringIO()
        write_ground_truth_csv(trips, buf)
        buf.seek(0)
        assert read_ground_truth_csv(buf) == trips

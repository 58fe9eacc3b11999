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

    def test_ground_truth_csv_round_trip(self, four_zone_map):
        _, trips = generate(small_cfg(four_zone_map))
        buf = io.StringIO()
        write_ground_truth_csv(trips, buf)
        buf.seek(0)
        assert read_ground_truth_csv(buf) == trips

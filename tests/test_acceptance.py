"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the big determinism check (criterion 9) builds a 1M-record corpus
and takes the bulk of the runtime.
"""

import json
import math
import random
import time
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from conftest import feature_collection, square_feature
from geotrips.analytics import UserProfile, aggregate_od, classify_groups, time_of_day_histogram
from geotrips.cli import main
from geotrips.displacement import (
    FilterConfig,
    RunReport,
    extract_displacements,
    filter_active_users,
    remove_speed_violations,
    run_extraction,
)
from geotrips.geometry import (
    EARTH_RADIUS_M,
    GeoPoint,
    PolygonRing,
    ZonePolygon,
    haversine_m,
)
from geotrips.records import (
    TweetRecord, UserTimeline, build_timelines, dedupe_records, from_epoch_us, parse_records, to_epoch_us,
)
from geotrips.synthgen import SynthConfig, generate
from geotrips.zones import Zone, ZoneSet, load_zones
from oracles import min_edge_distance, random_simple_polygon, winding_number_inside

UTC = timezone.utc
T0 = datetime(2014, 8, 2, 12, 0, tzinfo=UTC)

FOUR_ZONE_OD = {
    ("alpha", "beta"): 0.4,
    ("beta", "alpha"): 0.2,
    ("gamma", "delta"): 0.25,
    ("delta", "gamma"): 0.15,
}


def four_zones() -> ZoneSet:
    return load_zones(
        feature_collection(
            square_feature("alpha", 40.0, -74.0),
            square_feature("beta", 40.0, -73.7),
            square_feature("gamma", 40.3, -74.0),
            square_feature("delta", 40.3, -73.7),
        )
    )


def report_pass(n: int, detail: str) -> None:
    print(f"\nACCEPTANCE CRITERION {n}: PASS ({detail})")


def test_criterion_01_pip_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    checked = 0
    for poly_i in range(3):
        verts = random_simple_polygon(rng, 50)
        zone = ZoneSet([Zone("z", (ZonePolygon(PolygonRing(verts[:, 0], verts[:, 1])),))])
        lats = rng.uniform(39.7, 41.3, size=10_000)
        lons = rng.uniform(-75.0, -73.0, size=10_000)
        for lat, lon in zip(lats, lons):
            if min_edge_distance(lat, lon, verts) < 1e-9:
                continue
            indexed = zone.label_point(GeoPoint(lat, lon)) == "z"
            assert indexed == winding_number_inside(lat, lon, verts), (
                f"disagreement at ({lat}, {lon}) on polygon {poly_i}"
            )
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"PIP oracle sweep took {elapsed:.2f}s (budget 5s)"
    report_pass(1, f"{checked} points, 100% agreement, {elapsed:.2f}s")


def test_criterion_02_haversine_checks():
    rng = np.random.default_rng(7)
    for lat, lon in zip(rng.uniform(-89, 89, 200), rng.uniform(-180, 180, 200)):
        assert haversine_m(lat, lon, lat, lon) == 0.0
    antipodal = haversine_m(0, 0, 0, 180)
    assert antipodal == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-6)
    lats = rng.uniform(-89, 89, size=(10_000, 2))
    lons = rng.uniform(-180, 180, size=(10_000, 2))
    worst = 0.0
    for (lat1, lat2), (lon1, lon2) in zip(lats, lons):
        d1 = haversine_m(lat1, lon1, lat2, lon2)
        d2 = haversine_m(lat2, lon2, lat1, lon1)
        if d1 > 0:
            worst = max(worst, abs(d1 - d2) / d1)
    assert worst <= 1e-12, f"worst relative asymmetry {worst}"
    report_pass(2, f"identity exact, antipodal ok, worst asymmetry {worst:.2e}")


def test_criterion_03_speed_filter_postcondition():
    zs = four_zones()
    cfg = FilterConfig()
    for rate in (0.0, 0.01, 0.1):
        records, _ = generate(
            SynthConfig(seed=31, n_agents=25, zone_map=zs, od_weights=FOUR_ZONE_OD, anomaly_rate=rate)
        )
        timelines = filter_active_users(build_timelines(dedupe_records(records)[0]), cfg)
        removed_total = 0
        for tl in timelines.values():
            filtered, removed = remove_speed_violations(tl, cfg)
            removed_total += len(removed)
            for a, b in zip(filtered.records, filtered.records[1:]):
                dt = (from_epoch_us(b.time) - from_epoch_us(a.time)).total_seconds()
                if dt > 0:
                    assert haversine_m(a.lat, a.lon, b.lat, b.lon) / dt <= cfg.max_speed
        if rate == 0.0:
            assert removed_total == 0, f"anomaly-free corpus lost {removed_total} records"
        else:
            assert removed_total > 0
    report_pass(3, "no surviving pair exceeds 44.704 m/s; zero removals at rate 0")


def test_criterion_04_displacement_pairing_oracle():
    cfg = FilterConfig()
    rng = random.Random(404)
    for case in range(100):
        n = rng.randrange(0, 21)
        times = sorted(rng.uniform(0, 86_400) for _ in range(n))
        recs = tuple(
            TweetRecord(
                "u",
                40.0 + rng.uniform(0, 0.5),
                -74.0 + rng.uniform(0, 0.5),
                to_epoch_us(T0 + timedelta(seconds=t)),
                "",
            )
            for t in times
        )
        tl = UserTimeline.from_records("u", recs)
        got = extract_displacements(tl, cfg)
        expected = []
        for a, b in zip(recs, recs[1:]):
            t0, t1 = from_epoch_us(a.time), from_epoch_us(b.time)
            dt = (t1 - t0).total_seconds()
            if 0 < dt <= cfg.time_window and haversine_m(a.lat, a.lon, b.lat, b.lon) >= cfg.min_displacement_distance:
                expected.append((t0, t1))
        assert [(from_epoch_us(d.start), from_epoch_us(d.end)) for d in got] == expected, f"case {case}"
    report_pass(4, "100 random timelines match the hand-rule oracle exactly")


def test_criterion_05_synthetic_od_recovery():
    start = time.perf_counter()
    zs = four_zones()
    records, trips = generate(
        SynthConfig(seed=55, n_agents=175, zone_map=zs, od_weights=FOUR_ZONE_OD)
    )
    assert len(records) >= 50_000, f"corpus has only {len(records)} tweets"
    timelines = build_timelines(dedupe_records(records)[0])
    displacements, _ = run_extraction(timelines, zs, FilterConfig())
    matrix = aggregate_od(displacements)
    recovered = {
        (o, d): matrix.proportions[i][j]
        for i, o in enumerate(matrix.zone_ids)
        for j, d in enumerate(matrix.zone_ids)
    }
    l1 = sum(abs(recovered.get(k, 0.0) - w) for k, w in FOUR_ZONE_OD.items())
    l1 += sum(v for k, v in recovered.items() if k not in FOUR_ZONE_OD)
    elapsed = time.perf_counter() - start
    assert l1 <= 0.05, f"OD recovery L1 {l1:.4f} exceeds 0.05"
    assert elapsed < 30.0, f"end-to-end took {elapsed:.1f}s (budget 30s)"
    report_pass(5, f"{len(records)} tweets, L1={l1:.4f}, {elapsed:.1f}s")


def test_criterion_06_time_of_day_recovery():
    planted_bins = {7, 8, 9, 16, 17, 18, 19}
    schedule = tuple(1.0 if h in planted_bins else 0.0 for h in range(24))
    zs = four_zones()
    records, _ = generate(
        SynthConfig(
            seed=66,
            n_agents=80,
            zone_map=zs,
            od_weights=FOUR_ZONE_OD,
            weekday_schedule=schedule,
            weekend_schedule=schedule,
        )
    )
    timelines = build_timelines(dedupe_records(records)[0])
    displacements, _ = run_extraction(timelines, zs, FilterConfig())
    hist = time_of_day_histogram(displacements, UTC)
    total = hist.total
    assert total > 100
    in_planted = sum(
        hist.weekday_counts[h] + hist.weekend_counts[h] for h in planted_bins
    )
    share = in_planted / total
    assert share >= 0.90, f"only {share:.1%} of crossings in planted bins"
    report_pass(6, f"{share:.1%} of {total} crossings in planted bins")


def test_criterion_07_group_classification_oracle():
    rng = random.Random(777)
    profiles = [
        UserProfile(f"user{rng.randrange(100_000):06d}n{i}", rng.randrange(1, 5_000), rng.randrange(200))
        for i in range(1_000)
    ]
    # ties at the cut boundary exercise the user_id tie-break
    profiles += [UserProfile(f"tie{i}", 5_000, 10) for i in range(15)]

    def oracle(ps, cutoff):
        order = sorted(ps, key=lambda p: (-p.tweet_count, p.user_id))
        k = max(1, math.ceil(cutoff * len(order)))
        return [p.user_id for p in order[:k]], [p.user_id for p in order[k:]]

    for cutoff in (0.01, 0.005, 0.013, 0.25):
        part = classify_groups(profiles, cutoff=cutoff)
        high, low = oracle(profiles, cutoff)
        assert part.high_group == high and part.low_group == low
        scaled = classify_groups(
            [UserProfile(p.user_id, p.tweet_count * 7, p.displacement_count) for p in profiles],
            cutoff=cutoff,
        )
        assert scaled.high_group == part.high_group
        assert scaled.low_group == part.low_group
    report_pass(7, "exact oracle match incl. ceil/tie-break; invariant under x7 scaling")


def test_criterion_08_report_average_consistency():
    rng = random.Random(8)
    for _ in range(50):
        total = rng.randrange(1, 1_000_000)
        travelers = rng.randrange(1, 10_000)
        r = RunReport(displacements_total=total, travelers=travelers)
        assert r.average_displacements_per_traveler == total / travelers
    fixture = RunReport(displacements_total=96_471, travelers=6_638)
    assert fixture.formatted_average() == "14.5"
    report_pass(8, "average == total/travelers; 96471/6638 displays as 14.5")


@pytest.mark.slow
def test_criterion_09_determinism_and_throughput(tmp_path):
    zones_path = tmp_path / "zones.geojson"
    zones_path.write_text(
        json.dumps(
            feature_collection(
                square_feature("alpha", 40.0, -74.0),
                square_feature("beta", 40.0, -73.7),
                square_feature("gamma", 40.3, -74.0),
                square_feature("delta", 40.3, -73.7),
            )
        )
    )
    synth_cfg = {
        "zones": str(zones_path),
        "seed": 99,
        "n_agents": 900,
        "tweet_floor": 1100,
        "tweet_scale": 10,
        "tweet_alpha": 1.5,
        "trip_fraction": 0.08,
        "od_weights": {
            "alpha": {"beta": 0.4},
            "beta": {"alpha": 0.2},
            "gamma": {"delta": 0.25},
            "delta": {"gamma": 0.15},
        },
    }
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(json.dumps(synth_cfg))
    data = tmp_path / "data"
    assert main(["synth", "--config", str(cfg_path), "--out", str(data)]) == 0
    with open(data / "corpus.csv") as fh:
        n_lines = sum(1 for _ in fh) - 1
    assert n_lines >= 1_000_000, f"corpus has only {n_lines} records"

    extract_files = ("displacements.csv", "rejects.csv", "users.csv", "report.json")
    analyze_files = ("od_counts.csv", "od_proportions.csv", "histogram_all.csv", "groups.csv")
    outputs = {}
    elapsed = {}
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        an = tmp_path / f"a{workers}"
        start = time.perf_counter()
        assert main([
            "extract",
            "--input", str(data / "corpus.csv"),
            "--zones", str(zones_path),
            "--out", str(out),
            "--workers", str(workers),
        ]) == 0
        assert main([
            "analyze",
            "--displacements", str(out / "displacements.csv"),
            "--out", str(an),
        ]) == 0
        elapsed[workers] = time.perf_counter() - start
        outputs[workers] = {
            name: (out / name).read_bytes() for name in extract_files
        } | {name: (an / name).read_bytes() for name in analyze_files}
    assert outputs[1] == outputs[8], "outputs differ between --workers 1 and --workers 8"
    budget = 60.0
    slowest = max(elapsed.values())
    assert slowest < budget, f"extract+analyze took {slowest:.1f}s (budget {budget}s)"
    report_pass(
        9,
        f"{n_lines} records byte-identical across workers; "
        f"extract+analyze {elapsed[1]:.1f}s/{elapsed[8]:.1f}s",
    )


def test_criterion_10_count_conservation(tmp_path):
    zs = four_zones()
    records, _ = generate(
        SynthConfig(seed=10, n_agents=30, zone_map=zs, od_weights=FOUR_ZONE_OD, anomaly_rate=0.02)
    )
    corpus = tmp_path / "corpus.csv"
    from geotrips.records import write_records_csv

    with open(corpus, "w", newline="") as fh:
        write_records_csv(records, fh)
    # splice in malformed lines
    lines = corpus.read_text().splitlines()
    lines.insert(5, "badline,with,too,few")
    lines.insert(100, "u9,95.0,-73.9,2014-08-02T21:58:00Z,out of range")
    corpus.write_text("\n".join(lines) + "\n")

    parsed = parse_records(str(corpus), format="csv")
    assert parsed.lines_read == len(records) + 2
    assert len(parsed.records) + len(parsed.rejects) == parsed.lines_read
    assert len(parsed.rejects) == 2

    deduped, duplicates = dedupe_records(parsed.records)
    timelines = build_timelines(deduped)
    _, report = run_extraction(timelines, zs, FilterConfig())
    report.lines_read = parsed.lines_read
    report.rejected_lines = len(parsed.rejects)
    report.parsed_records = len(parsed.records)
    report.duplicates_removed = duplicates
    report.validate()
    assert report.lines_read == report.parsed_records + report.rejected_lines
    assert report.users_total == report.users_retained + report.users_dropped
    assert (
        report.displacements_total
        == report.displacements_inter_zone + report.displacements_intra_zone
    )
    report_pass(10, "line and stage arithmetic balances exactly")

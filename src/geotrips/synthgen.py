"""Synthetic corpus generator with known ground truth.

Agents tweet from fixed per-zone anchor locations and make inter-zone trips
drawn from planted OD weights and an hourly schedule.  Trip tweets are
scheduled so every listed ground-truth trip is recoverable by the pipeline:
the two flanking tweets are consecutive, inside the time window, and below
the speed-filter limit, while all other record pairs either stay put or are
separated by far more than the time window.
"""

from __future__ import annotations

import csv
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import IO
from zoneinfo import ZoneInfo

from .errors import ConfigError
from .geometry import GeoPoint, haversine_m
from .records import TweetRecord, format_timestamp, parse_timestamp, read_table
from .zones import ZoneSet

_UTC = timezone.utc
_DEG_PER_M_LAT = 1.0 / 111_320.0

UNIFORM_SCHEDULE = tuple([1.0] * 24)

#: `(fields, test, rule)`: the numeric `SynthConfig` fields each test accepts.
_RANGES = (
    (("n_agents", "tweet_cap", "min_tweets"), lambda v: v >= 1, ">= 1"),
    (("tweet_floor",), lambda v: v >= 0, ">= 0"),
    (
        ("tweet_alpha", "tweet_scale", "time_window", "max_speed", "min_displacement_distance"),
        lambda v: 0 < v < math.inf,
        "finite and > 0",
    ),
    (("gps_noise_sigma",), lambda v: 0 <= v < math.inf, "finite and >= 0"),
    (("trip_fraction", "anomaly_rate"), lambda v: 0 <= v <= 1, "in [0, 1]"),
)


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    n_agents: int = 50
    zone_map: ZoneSet = None  # required
    od_weights: dict[tuple[str, str], float] = None  # inter-zone, sums to 1
    period_start: datetime = datetime(2014, 3, 1, tzinfo=_UTC)
    period_end: datetime = datetime(2014, 5, 1, tzinfo=_UTC)
    # Heavy-tailed tweets per agent: floor + scale * (Pareto(alpha) - 1),
    # tuned so the top percentile of agents carries a large share of trips.
    tweet_floor: int = 110
    tweet_scale: float = 40.0
    tweet_alpha: float = 1.1
    tweet_cap: int = 20_000
    trip_fraction: float = 0.15
    weekday_schedule: tuple[float, ...] = UNIFORM_SCHEDULE
    weekend_schedule: tuple[float, ...] = UNIFORM_SCHEDULE
    gps_noise_sigma: float = 30.0  # meters
    anomaly_rate: float = 0.0
    tz: str = "UTC"
    # Pipeline parameters mirrored for recoverability scheduling.
    time_window: float = 7200.0
    max_speed: float = 44.704
    min_tweets: int = 100
    min_displacement_distance: float = 100.0

    def __post_init__(self):
        if self.zone_map is None:
            raise ConfigError("SynthConfig.zone_map is required")
        if len(self.zone_map.zones) < 2:
            raise ConfigError("zone_map needs at least 2 zones for inter-zone trips")
        if not self.od_weights:
            raise ConfigError("SynthConfig.od_weights is required")
        ids = set(self.zone_map.zone_ids)
        for (o, d), w in self.od_weights.items():
            if o not in ids or d not in ids:
                raise ConfigError(f"od_weights references unknown zone in ({o}, {d})")
            if o == d:
                raise ConfigError("od_weights must be inter-zone (origin != destination)")
            if w < 0:
                raise ConfigError("od_weights must be non-negative")
        total = sum(self.od_weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"od_weights must sum to 1, got {total}")
        for names, in_range, rule in _RANGES:
            for name in names:
                value = getattr(self, name)
                if not in_range(value):  # comparisons with NaN are false
                    raise ConfigError(f"{name} = {value!r} is out of range: must be {rule}")
        if len(self.weekday_schedule) != 24 or len(self.weekend_schedule) != 24:
            raise ConfigError("trip schedules must have 24 hourly weights")
        if self.period_end <= self.period_start:
            raise ConfigError("period_end must be after period_start")


@dataclass(frozen=True)
class GroundTruthTrip:
    user_id: str
    origin_zone: str
    destination_zone: str
    true_crossing_time: datetime


def _zone_interior_point(zs: ZoneSet, zone_id: str, rng: random.Random) -> GeoPoint:
    """Representative point well inside the zone: the center of its first
    outer ring's tight bounds if that works, else deterministic rejection
    sampling inside those bounds."""
    zone = next(z for z in zs.zones if z.zone_id == zone_id)
    outer = zone.polygons[0].outer
    min_lat, max_lat = min(outer.lats), max(outer.lats)
    min_lon, max_lon = min(outer.lons), max(outer.lons)
    center = GeoPoint((min_lat + max_lat) / 2, (min_lon + max_lon) / 2)
    if zs.label_point(center) == zone_id:
        return center
    for _ in range(10_000):
        p = GeoPoint(rng.uniform(min_lat, max_lat), rng.uniform(min_lon, max_lon))
        if zs.label_point(p) == zone_id:
            return p
    raise ConfigError(f"could not sample an interior point for zone {zone_id!r}")


def _offset_m(p: GeoPoint, dlat_m: float, dlon_m: float, cos_lat: float) -> GeoPoint:
    return GeoPoint(
        p.lat + dlat_m * _DEG_PER_M_LAT,
        p.lon + dlon_m * _DEG_PER_M_LAT / cos_lat,
    )


def _tgauss(rng: random.Random, sigma: float) -> float:
    """Gaussian truncated at 3 sigma, so noise displacement is bounded."""
    return max(-3.0 * sigma, min(3.0 * sigma, rng.gauss(0.0, sigma)))


@dataclass
class _Trip:
    t_cross: float  # epoch seconds
    t1: int
    t2: int
    origin_zone: str
    dest_zone: str
    region_start: float  # backgrounds are excluded from [region_start, t2]


def generate(cfg: SynthConfig) -> tuple[list[TweetRecord], list[GroundTruthTrip]]:
    """Produce a deterministic corpus plus its recoverable ground truth.

    The returned trips are exactly those the default pipeline recovers as
    inter-zone displacements: trips of agents that clear the activity
    threshold, with both flanking tweets consecutive inside the window.
    """
    zs = cfg.zone_map
    tz = ZoneInfo(cfg.tz)
    anchor_rng = random.Random(cfg.seed * 7919 + 13)
    zone_anchor = {zid: _zone_interior_point(zs, zid, anchor_rng) for zid in zs.zone_ids}
    mean_lat = sum(p.lat for p in zone_anchor.values()) / len(zone_anchor)
    cos_lat = max(0.05, math.cos(math.radians(mean_lat)))

    od_pairs = list(cfg.od_weights.keys())
    od_w = [cfg.od_weights[p] for p in od_pairs]
    origin_marginal: dict[str, float] = {}
    for (o, _), w in cfg.od_weights.items():
        origin_marginal[o] = origin_marginal.get(o, 0.0) + w
    home_zones = list(origin_marginal.keys())
    home_w = list(origin_marginal.values())

    start_s = cfg.period_start.timestamp()
    end_s = cfg.period_end.timestamp()
    n_days = max(1, int((end_s - start_s) // 86400))
    local_day0 = cfg.period_start.astimezone(tz).date()

    records: list[TweetRecord] = []
    trips_out: list[GroundTruthTrip] = []

    # Minimum spacing between any two records of one agent, chosen so the
    # worst-case truncated-noise jitter between stationary tweets can never
    # exceed the speed limit.
    noise_reach = 6.0 * cfg.gps_noise_sigma * math.sqrt(2.0)
    slot_s = max(10, int(math.ceil(1.25 * noise_reach / cfg.max_speed)))

    for ai in range(cfg.n_agents):
        rng = random.Random(cfg.seed * 1_000_003 + ai)
        uid = f"agent{ai:05d}"
        u = rng.random()
        n_tweets = min(
            cfg.tweet_cap,
            cfg.tweet_floor + int(cfg.tweet_scale * ((1.0 - u) ** (-1.0 / cfg.tweet_alpha) - 1.0)),
        )
        n_trips_target = int(n_tweets * cfg.trip_fraction)

        # Per-agent anchors: zone interior plus a small fixed jitter.
        anchors: dict[str, GeoPoint] = {}
        for zid, base in zone_anchor.items():
            cand = _offset_m(base, _tgauss(rng, 50), _tgauss(rng, 50), cos_lat)
            anchors[zid] = cand if zs.label_point(cand) == zid else base

        home = rng.choices(home_zones, weights=home_w)[0]

        # Candidate crossing times per the hourly schedule, then a sequential
        # accept pass enforcing window and speed safety margins.
        candidates: list[tuple[float, str, str]] = []
        for _ in range(n_trips_target):
            day = rng.randrange(n_days)
            date = local_day0 + timedelta(days=day)
            sched = cfg.weekend_schedule if date.weekday() >= 5 else cfg.weekday_schedule
            hour = rng.choices(range(24), weights=sched)[0]
            local = datetime(
                date.year, date.month, date.day, hour,
                rng.randrange(60), rng.randrange(60), tzinfo=tz,
            )
            o, d = od_pairs[rng.choices(range(len(od_pairs)), weights=od_w)[0]]
            candidates.append((local.timestamp(), o, d))
        candidates.sort(key=lambda c: c[0])

        trips: list[_Trip] = []
        prev_t2 = -math.inf
        prev_loc = anchors[home]
        for t_cross, o, d in candidates:
            o_anchor = anchors[o]
            d_anchor = anchors[d]
            dist = haversine_m(o_anchor.lat, o_anchor.lon, d_anchor.lat, d_anchor.lon)
            if dist < 2 * cfg.min_displacement_distance + 2 * noise_reach:
                continue  # too close to survive the distance cut under noise
            min_dur = max(120.0, 1.25 * dist / cfg.max_speed)
            if min_dur > 0.9 * cfg.time_window:
                continue  # cannot cross within the window at a legal speed
            teleport = haversine_m(prev_loc.lat, prev_loc.lon, o_anchor.lat, o_anchor.lon)
            gap = max(1.5 * cfg.time_window, 1.25 * teleport / cfg.max_speed)
            dur = rng.uniform(min_dur, max(min_dur * 1.01, min(0.9 * cfg.time_window, max(3 * min_dur, 1800.0))))
            frac = rng.uniform(0.25, 0.75)
            t1 = int(t_cross - dur * frac)
            t2 = int(t_cross + dur * (1.0 - frac))
            if t1 - prev_t2 < gap or t1 <= start_s or t2 >= end_s:
                continue
            trips.append(_Trip(t_cross, t1, t2, o, d, t1 - gap))
            prev_t2 = t2
            prev_loc = d_anchor

        region_starts = [t.region_start for t in trips]
        region_ends = [t.t2 for t in trips]
        arrival_times = [t.t2 for t in trips]

        # One occupied time slot per record; a new background needs its own
        # slot and both neighbors free, which guarantees > slot_s seconds to
        # every other record.
        slots: set[int] = set()
        agent_records: list[tuple[int, GeoPoint]] = []

        def zone_at(ts: float) -> str:
            i = bisect_right(arrival_times, ts) - 1
            return trips[i].dest_zone if i >= 0 else home

        def blocked(ts: float) -> bool:
            i = bisect_right(region_starts, ts) - 1
            return i >= 0 and ts <= region_ends[i] + 2.0 * slot_s

        for trip in trips:
            agent_records.append((trip.t1, anchors[trip.origin_zone]))
            agent_records.append((trip.t2, anchors[trip.dest_zone]))
            slots.add(trip.t1 // slot_s)
            slots.add(trip.t2 // slot_s)

        n_bg = n_tweets - 2 * len(trips)
        attempts = 0
        placed = 0
        while placed < n_bg and attempts < 50 * n_bg + 100:
            attempts += 1
            t = int(rng.uniform(start_s + 1, end_s - 1))
            slot = t // slot_s
            if blocked(t) or slots & {slot - 1, slot, slot + 1}:
                continue
            slots.add(slot)
            loc = anchors[zone_at(t)]
            agent_records.append((t, loc))
            placed += 1
            if cfg.anomaly_rate > 0 and rng.random() < cfg.anomaly_rate:
                ta = t + 1
                if not blocked(ta):
                    slots.add(ta // slot_s)
                    # ~222 km jump in one second: guaranteed speed violation,
                    # so the pipeline's filter must drop this record.
                    agent_records.append((ta, GeoPoint(loc.lat + 2.0, loc.lon)))

        agent_records.sort(key=lambda r: r[0])
        sigma = cfg.gps_noise_sigma
        for ts, loc in agent_records:
            noisy = (
                _offset_m(loc, _tgauss(rng, sigma), _tgauss(rng, sigma), cos_lat)
                if sigma > 0
                else loc
            )
            records.append(
                TweetRecord(
                    uid,
                    round(noisy.lat, 6),
                    round(noisy.lon, 6),
                    datetime.fromtimestamp(ts, _UTC),
                    "",
                )
            )

        if len(agent_records) >= cfg.min_tweets:
            trips_out.extend(
                GroundTruthTrip(
                    uid, t.origin_zone, t.dest_zone, datetime.fromtimestamp(int(t.t_cross), _UTC)
                )
                for t in trips
            )

    records.sort(key=lambda r: (r.user_id, r.timestamp))
    return records, trips_out


GROUND_TRUTH_COLUMNS = ("user_id", "origin_zone", "dest_zone", "true_crossing_time")


def write_ground_truth_csv(trips: list[GroundTruthTrip], fh: IO[str]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(GROUND_TRUTH_COLUMNS)
    for t in trips:
        writer.writerow(
            [t.user_id, t.origin_zone, t.destination_zone, format_timestamp(t.true_crossing_time)]
        )


def _trip_from_row(row: list[str]) -> GroundTruthTrip:
    return GroundTruthTrip(row[0], row[1], row[2], parse_timestamp(row[3]))


def read_ground_truth_csv(source: str | IO[str]) -> list[GroundTruthTrip]:
    return read_table(source, GROUND_TRUTH_COLUMNS, _trip_from_row, "ground-truth CSV")

"""Synthetic corpus generator with known ground truth.

Agents tweet from fixed per-zone anchor locations and make inter-zone trips
drawn from planted OD weights and an hourly schedule.  Trip tweets are
scheduled so every listed ground-truth trip is recoverable by the pipeline:
the two flanking tweets are consecutive, inside the time window, and below
the speed-filter limit, while all other record pairs either stay put or are
separated by far more than the time window.
"""

from __future__ import annotations

import contextlib
import math
import os
import random
from bisect import bisect_right
from datetime import datetime, timedelta, timezone
from operator import itemgetter
from typing import IO, NamedTuple

from .displacement import FilterConfig
from .errors import ConfigError
from .geometry import GeoPoint, haversine_m
from .records import (
    Settings, TweetRecord, as_float, format_us, has_type, parse_timestamp, read_json,
    read_table, resolve_tz, shown, to_epoch_us, write_table,
)
from .zones import ZoneSet, load_zones

_UTC = timezone.utc
_DEG_PER_M_LAT = 1.0 / 111_320.0

UNIFORM_SCHEDULE = tuple([1.0] * 24)


class SynthConfig(Settings):
    """The generator's settings, checked by the `Settings` rule after `tz`; then
    the zones, `od_weights`, the schedules and the period."""

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
    # The pipeline's thresholds, for recoverability scheduling.
    time_window: float = FilterConfig.time_window
    max_speed: float = FilterConfig.max_speed
    min_tweets: int = FilterConfig.min_tweets
    min_displacement_distance: float = FilterConfig.min_displacement_distance
    _fields = tuple(__annotations__)
    _ranges = FilterConfig._ranges + (
        (("n_agents", "tweet_cap"), lambda v: v >= 1, ">= 1"),
        (("tweet_floor",), lambda v: v >= 0, ">= 0"),
        (("tweet_alpha", "tweet_scale"), lambda v: 0 < v < math.inf, "finite and > 0"),
        (("gps_noise_sigma",), lambda v: 0 <= v < math.inf, "finite and >= 0"),
        (("trip_fraction", "anomaly_rate"), lambda v: 0 <= v <= 1, "in [0, 1]"),
    )

    def _check(self) -> None:
        resolve_tz(self.tz)
        super()._check()
        if not isinstance(self.zone_map, ZoneSet):
            raise ConfigError("SynthConfig.zone_map is required" if self.zone_map is None
                              else f"zone_map = {shown(self.zone_map)} is not a valid ZoneSet")
        if len(self.zone_map.zones) < 2:
            raise ConfigError("zone_map needs at least 2 zones for inter-zone trips")
        if not self.od_weights:
            raise ConfigError("SynthConfig.od_weights is required")
        od = self.od_weights
        if not (isinstance(od, dict) and all(type(k) is tuple and [*map(type, k)] == [str, str] for k in od)):
            raise ConfigError(f"od_weights = {shown(od)} is not a dict keyed by (origin, destination)")
        ids = set(self.zone_map.zone_ids)
        for (o, d), w in od.items():
            if not has_type(w, float):
                raise ConfigError(f"od_weights.{o}.{d} = {shown(w)} is not a valid float")
            if o not in ids or d not in ids:
                raise ConfigError(f"od_weights references unknown zone in ({o}, {d})")
            if o == d:
                raise ConfigError("od_weights must be inter-zone (origin != destination)")
            if not 0 <= w < math.inf:  # also refuses NaN
                raise ConfigError(f"od_weights.{o}.{d} = {shown(w)} is out of range: must be finite and >= 0")
        total = sum(map(as_float, od.values()))  # ints may sum past a float
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"od_weights must sum to 1, got {total}")
        if len(self.weekday_schedule) != 24 or len(self.weekend_schedule) != 24:
            raise ConfigError("trip schedules must have 24 hourly weights")
        for name in ("weekday_schedule", "weekend_schedule"):
            sched = getattr(self, name)  # summed as `random.choices` sums it, as floats
            if not (all(w >= 0 for w in sched) and 0 < sum(map(as_float, sched)) < math.inf):
                raise ConfigError(f"{name} = {shown(sched)} is out of range: must be >= 0 with a finite sum > 0")
        for name in ("period_start", "period_end"):
            if getattr(self, name).utcoffset() is None:
                raise ConfigError(f"{name} = {getattr(self, name)!r} lacks a UTC offset")
        if self.period_end <= self.period_start:
            raise ConfigError("period_end must be after period_start")
        # `generate` puts a record at a zone's point, jumps 2 degrees north for an anomaly, and adds
        # noise of at most 3 sigma (`_tgauss`), in longitude over `cos_lat` of a latitude in the zones.
        lats = [x for zone in self.zone_map.zones for poly in zone.polygons for x in poly.outer.lats]
        lons = [x for zone in self.zone_map.zones for poly in zone.polygons for x in poly.outer.lons]
        reach = 3.0 * self.gps_noise_sigma * _DEG_PER_M_LAT
        cos_lat = max(0.05, min(math.cos(math.radians(min(lats))), math.cos(math.radians(max(lats)))))
        if not (-90.0 <= min(lats) - reach and max(lats) + 2.0 * (self.anomaly_rate > 0) + reach <= 90.0
                and -180.0 <= min(lons) - reach / cos_lat and max(lons) + reach / cos_lat <= 180.0):
            raise ConfigError(
                f"gps_noise_sigma = {self.gps_noise_sigma!r} with anomaly_rate = {self.anomaly_rate!r} can put"
                " a record of zone_map off the globe, past latitude ±90 or longitude ±180"
            )


def _config_value(path: str, key: str, value, default):
    """`value` of the synth config `key` as `SynthConfig` takes and checks it: by the type
    of `default`, a list as a tuple, text as a datetime (`parse_timestamp`, UTC if naive).
    Only what `SynthConfig` does not hold, the `zones` path and `od_weights` tables, is checked."""
    kind = type(default)
    if kind is tuple and type(value) is list:
        value = tuple(value)
    elif kind is datetime and type(value) is str:
        with contextlib.suppress(ValueError):  # else `SynthConfig` refuses the text
            value = parse_timestamp(value, _UTC)
    elif type(value) is not kind and (kind is dict or key == "zones"):
        raise ConfigError(f"{path}: {key} = {value!r} is not a valid {kind.__name__}")
    return value


def load_config(path: str, seed: int | None = None) -> SynthConfig:
    """The `SynthConfig` in the JSON object at `path`, whose ``zones`` path is
    relative to its directory, with `seed` in place of the file's if given.
    A bad key or value is a `ConfigError` naming it."""
    doc = read_json(path, path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: synth config is not a JSON object")
    settings = {n: getattr(SynthConfig, n) for n in SynthConfig._fields if n not in ("zone_map", "od_weights")}
    unknown = next((key for key in doc if key not in {"zones", "od_weights", *settings}), None)
    if unknown is not None:
        raise ConfigError(f"{path}: unknown key {unknown!r}")
    zones_path = doc.get("zones")
    if not zones_path:
        raise ConfigError(f"{path}: synth config needs a 'zones' GeoJSON path")
    zones_path = _config_value(path, "zones", zones_path, "")
    if not os.path.isabs(zones_path):
        zones_path = os.path.join(os.path.dirname(os.path.abspath(path)), zones_path)
    if not os.path.exists(zones_path):
        raise ConfigError(f"zones file not found: {zones_path}")
    zs = load_zones(zones_path)
    od_raw = _config_value(path, "od_weights", doc.get("od_weights") or {}, {})
    od_weights = {
        (origin, dest): w for origin, dests in od_raw.items()
        for dest, w in _config_value(path, f"od_weights.{origin}", dests, {}).items()
    }
    kwargs = {
        key: _config_value(path, key, doc[key], default)
        for key, default in settings.items() if key in doc
    }
    try:
        cfg = SynthConfig(zone_map=zs, od_weights=od_weights, **kwargs)
        return cfg if seed is None else SynthConfig(seed, *cfg._values()[1:])  # seed is the first field
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


class GroundTruthTrip(NamedTuple):
    """One planted trip as its row, with `crossing` in UTC epoch microseconds."""

    user_id: str
    origin_zone: str
    destination_zone: str
    crossing: int


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


class _Trip(NamedTuple):
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
    Every record is on the globe, as `SynthConfig` checks.
    """
    zs = cfg.zone_map
    tz = resolve_tz(cfg.tz)
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
    reach_s = 1.25 * noise_reach / cfg.max_speed  # inf past the float range: one slot
    slot_s = max(10, math.ceil(reach_s)) if reach_s < math.inf else math.inf

    for ai in range(cfg.n_agents):
        rng = random.Random(cfg.seed * 1_000_003 + ai)
        uid = f"agent{ai:05d}"
        u = rng.random()
        try:
            extra = int(cfg.tweet_scale * ((1.0 - u) ** (-1.0 / cfg.tweet_alpha) - 1.0))
        except OverflowError:  # a draw past the float range is past the cap
            extra = cfg.tweet_cap
        n_tweets = min(cfg.tweet_cap, cfg.tweet_floor + extra)
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
            if sigma > 0:
                loc = _offset_m(loc, _tgauss(rng, sigma), _tgauss(rng, sigma), cos_lat)
            records.append(TweetRecord(uid, round(loc.lat, 6), round(loc.lon, 6), ts * 1_000_000, ""))

        if len(agent_records) >= cfg.min_tweets:
            trips_out.extend(
                GroundTruthTrip(uid, t.origin_zone, t.dest_zone, int(t.t_cross) * 1_000_000)
                for t in trips
            )

    records.sort(key=itemgetter(0, 3))  # by user, then time
    return records, trips_out


GROUND_TRUTH_COLUMNS = ("user_id", "origin_zone", "dest_zone", "true_crossing_time")


def write_ground_truth_csv(trips: list[GroundTruthTrip], fh: IO[str]) -> None:
    write_table(fh, GROUND_TRUTH_COLUMNS, (
        (t.user_id, t.origin_zone, t.destination_zone, format_us(t.crossing)) for t in trips
    ))


def _trip_from_row(row: list[str]) -> GroundTruthTrip:
    return GroundTruthTrip(row[0], row[1], row[2], to_epoch_us(parse_timestamp(row[3])))


def read_ground_truth_csv(source: str | IO[str]) -> list[GroundTruthTrip]:
    return list(read_table(source, GROUND_TRUTH_COLUMNS, _trip_from_row, "ground-truth CSV"))

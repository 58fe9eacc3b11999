"""Core displacement extraction: activity filter, speed filter, time-window
pairing, zone labeling, and border-crossing time estimation.

The stage order is fixed: users below the activity threshold are dropped
first, then implausibly fast consecutive fixes are removed per user, then
consecutive record pairs inside the time window become displacements, then
each displacement's endpoints get zone labels and the crossing instant is
estimated as the interval midpoint.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import IO, Iterable

from .errors import ValidationError
from .geometry import GeoPoint, haversine_m
from .records import TweetRecord, UserTimeline, _parse_utc, format_timestamp, read_table
from .zones import EXTERNAL, ZoneSet

MPH_TO_MPS = 0.44704


@dataclass(frozen=True)
class FilterConfig:
    min_tweets: int = 100
    max_speed: float = 100 * MPH_TO_MPS  # m/s
    time_window: float = 7200.0  # s
    min_displacement_distance: float = 100.0  # m

    def __post_init__(self):
        for name in ("min_tweets", "max_speed", "time_window", "min_displacement_distance"):
            if not getattr(self, name) > 0:  # also rejects NaN
                raise ValidationError(f"FilterConfig.{name} must be strictly positive")


@dataclass(frozen=True)
class Displacement:
    user_id: str
    origin: GeoPoint
    destination: GeoPoint
    start_time: datetime
    end_time: datetime
    duration: float  # s
    distance: float  # m
    origin_zone: str | None = None
    destination_zone: str | None = None
    crossing_time_estimate: datetime | None = None

    @property
    def is_inter_zone(self) -> bool:
        return (
            self.origin_zone is not None
            and self.destination_zone is not None
            and self.origin_zone != self.destination_zone
        )

    @property
    def touches_external(self) -> bool:
        return EXTERNAL in (self.origin_zone, self.destination_zone)


@dataclass
class RunReport:
    """Stage-by-stage accounting for one pipeline run.

    All count fields must balance; `validate()` enforces the arithmetic.
    """

    lines_read: int = 0
    rejected_lines: int = 0
    parsed_records: int = 0
    duplicates_removed: int = 0
    users_total: int = 0
    users_retained: int = 0
    users_dropped: int = 0
    records_in_retained_timelines: int = 0
    speed_removed_records: int = 0
    displacements_total: int = 0
    displacements_inter_zone: int = 0
    displacements_intra_zone: int = 0
    displacements_external_touching: int = 0
    travelers: int = 0

    @property
    def average_displacements_per_traveler(self) -> float:
        if self.travelers == 0:
            return 0.0
        return self.displacements_total / self.travelers

    def formatted_average(self) -> str:
        return f"{self.average_displacements_per_traveler:.1f}"

    def validate(self) -> None:
        checks = [
            self.lines_read == self.parsed_records + self.rejected_lines,
            self.users_total == self.users_retained + self.users_dropped,
            self.displacements_total
            == self.displacements_inter_zone + self.displacements_intra_zone,
            self.travelers <= self.users_retained,
            self.speed_removed_records <= self.records_in_retained_timelines,
        ]
        if not all(checks):
            raise ValidationError(f"inconsistent run report: {self}")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["average_displacements_per_traveler"] = self.average_displacements_per_traveler
        return d


def filter_active_users(
    timelines: dict[str, UserTimeline], cfg: FilterConfig
) -> dict[str, UserTimeline]:
    """Keep users with at least `min_tweets` records (inclusive threshold)."""
    return {
        uid: tl for uid, tl in timelines.items() if len(tl.records) >= cfg.min_tweets
    }


def remove_speed_violations(
    tl: UserTimeline, cfg: FilterConfig
) -> tuple[UserTimeline, list[TweetRecord]]:
    """Drop records implying an implausible speed from the previous survivor.

    Scanning in time order, whenever the pair (previous survivor, next
    record) exceeds `max_speed` the later record is removed and the scan
    re-evaluates the survivor against the following record.  A zero time
    gap counts as infinite speed when the points are farther apart than
    `min_displacement_distance`.
    """
    recs = tl.records
    if len(recs) < 2:
        return tl, []
    kept = [recs[0]]
    removed: list[TweetRecord] = []
    max_speed = cfg.max_speed
    min_dist = cfg.min_displacement_distance
    for r in recs[1:]:
        prev = kept[-1]
        dt = (r.timestamp - prev.timestamp).total_seconds()
        dist = haversine_m(prev.lat, prev.lon, r.lat, r.lon)
        if dt <= 0.0:
            violates = dist > min_dist
        else:
            violates = dist / dt > max_speed
        if violates:
            removed.append(r)
        else:
            kept.append(r)
    return UserTimeline(tl.user_id, tuple(kept)), removed


def extract_displacements(tl: UserTimeline, cfg: FilterConfig) -> list[Displacement]:
    """Pair consecutive records into displacements.

    A pair qualifies when 0 < gap <= time_window and the endpoints are at
    least `min_displacement_distance` apart.  Pairs slide: a record may end
    one displacement and start the next.
    """
    out: list[Displacement] = []
    recs = tl.records
    window = cfg.time_window
    min_dist = cfg.min_displacement_distance
    for a, b in zip(recs, recs[1:]):
        dt = (b.timestamp - a.timestamp).total_seconds()
        if not 0.0 < dt <= window:
            continue
        dist = haversine_m(a.lat, a.lon, b.lat, b.lon)
        if dist < min_dist:
            continue
        out.append(
            Displacement(
                user_id=tl.user_id,
                origin=GeoPoint(a.lat, a.lon),
                destination=GeoPoint(b.lat, b.lon),
                start_time=a.timestamp,
                end_time=b.timestamp,
                duration=dt,
                distance=dist,
            )
        )
    return out


def label_displacement(d: Displacement, zs: ZoneSet) -> Displacement:
    """Attach zone labels and the crossing-time estimate.

    For inter-zone displacements the border-crossing instant is unknown
    within [start, end]; the midpoint is the minimax estimate.  Intra-zone
    displacements carry no crossing, so the estimate degrades to start.
    """
    origin_zone = zs.label_point(d.origin)
    dest_zone = zs.label_point(d.destination)
    if origin_zone != dest_zone:
        crossing = d.start_time + timedelta(seconds=d.duration / 2.0)
    else:
        crossing = d.start_time
    return dataclasses.replace(
        d,
        origin_zone=origin_zone,
        destination_zone=dest_zone,
        crossing_time_estimate=crossing,
    )


def _scan_user(
    tl: UserTimeline, zs: ZoneSet, cfg: FilterConfig
) -> tuple[list[Displacement], int]:
    """One pass over a non-empty timeline: speed filter, pairing and labeling.

    The scan keeps the previous survivor.  Each record is tested against it
    with the rule of `remove_speed_violations`; a kept record forms with it
    exactly the consecutive pair `extract_displacements` sees next, so the
    same gap and distance decide the window and distance tests, and the
    displacement is built once, labeled as `label_displacement` labels it.
    Returns the user's displacements and the number of records removed.
    """
    uid = tl.user_id
    label = zs.label_point
    max_speed = cfg.max_speed
    window = cfg.time_window
    min_dist = cfg.min_displacement_distance
    out: list[Displacement] = []
    removed = 0
    recs = tl.records
    prev = recs[0]
    for r in recs[1:]:
        dt = (r.timestamp - prev.timestamp).total_seconds()
        dist = haversine_m(prev.lat, prev.lon, r.lat, r.lon)
        if dt <= 0.0:
            violates = dist > min_dist
        else:
            violates = dist / dt > max_speed
        if violates:
            removed += 1
            continue
        if 0.0 < dt <= window and dist >= min_dist:
            origin = GeoPoint(prev.lat, prev.lon)
            destination = GeoPoint(r.lat, r.lon)
            origin_zone = label(origin)
            dest_zone = label(destination)
            start = prev.timestamp
            if origin_zone != dest_zone:
                crossing = start + timedelta(seconds=dt / 2.0)
            else:
                crossing = start
            out.append(
                Displacement(
                    uid, origin, destination, start, r.timestamp, dt, dist,
                    origin_zone, dest_zone, crossing,
                )
            )
        prev = r
    return out, removed


def run_extraction(
    timelines: dict[str, UserTimeline],
    zs: ZoneSet,
    cfg: FilterConfig,
    workers: int = 1,
) -> tuple[list[Displacement], RunReport]:
    """Run the per-user pipeline over all timelines.

    Each retained user's timeline is scanned once (`_scan_user`); the result
    equals `label_displacement` over `extract_displacements` over
    `remove_speed_violations`, user by user.  Users are processed in sorted
    order and each user's displacements come out time-ordered, so the result
    is canonical.  `workers` is accepted and ignored: extraction is serial.
    """
    report = RunReport()
    report.users_total = len(timelines)
    active = filter_active_users(timelines, cfg)
    report.users_retained = len(active)
    report.users_dropped = report.users_total - report.users_retained
    report.records_in_retained_timelines = sum(len(tl.records) for tl in active.values())

    displacements: list[Displacement] = []
    for uid in sorted(active):
        disps, removed = _scan_user(active[uid], zs, cfg)
        displacements.extend(disps)
        report.speed_removed_records += removed

    report.displacements_total = len(displacements)
    report.displacements_inter_zone = sum(1 for d in displacements if d.is_inter_zone)
    report.displacements_intra_zone = (
        report.displacements_total - report.displacements_inter_zone
    )
    report.displacements_external_touching = sum(
        1 for d in displacements if d.touches_external
    )
    report.travelers = len({d.user_id for d in displacements})
    return displacements, report


DISPLACEMENT_COLUMNS = (
    "user_id",
    "origin_lat",
    "origin_lon",
    "dest_lat",
    "dest_lon",
    "start_time",
    "end_time",
    "duration_s",
    "distance_m",
    "origin_zone",
    "dest_zone",
    "crossing_time",
)


def write_displacements_csv(displacements: Iterable[Displacement], fh: IO[str]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(DISPLACEMENT_COLUMNS)
    for d in displacements:
        writer.writerow(
            [
                d.user_id,
                repr(d.origin.lat),
                repr(d.origin.lon),
                repr(d.destination.lat),
                repr(d.destination.lon),
                format_timestamp(d.start_time),
                format_timestamp(d.end_time),
                repr(d.duration),
                repr(d.distance),
                d.origin_zone or "",
                d.destination_zone or "",
                format_timestamp(d.crossing_time_estimate) if d.crossing_time_estimate else "",
            ]
        )


def _displacement_from_row(row: list[str]) -> Displacement:
    return Displacement(
        user_id=row[0],
        origin=GeoPoint(float(row[1]), float(row[2])),
        destination=GeoPoint(float(row[3]), float(row[4])),
        start_time=_parse_utc(row[5]),
        end_time=_parse_utc(row[6]),
        duration=float(row[7]),
        distance=float(row[8]),
        origin_zone=row[9] or None,
        destination_zone=row[10] or None,
        crossing_time_estimate=_parse_utc(row[11]) if row[11] else None,
    )


def read_displacements_csv(source: str | IO[str]) -> list[Displacement]:
    return read_table(source, DISPLACEMENT_COLUMNS, _displacement_from_row, "displacement CSV")

"""Core displacement extraction: activity filter, speed filter, time-window
pairing, zone labeling, and border-crossing time estimation.

The stage order is fixed: users below the activity threshold are dropped
first, then implausibly fast consecutive fixes are removed per user, then
consecutive record pairs inside the time window become displacements, then
each displacement's endpoints get zone labels and the crossing instant is
estimated as the interval midpoint.
"""

from __future__ import annotations

import math
from array import array
from datetime import datetime, timedelta
from itertools import repeat
from operator import itemgetter
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import ValidationError
from .geometry import EARTH_RADIUS_M, GeoPoint, haversine_m
from .records import (
    CsvFields,
    Fields,
    Settings,
    TweetRecord,
    UserTimeline,
    _MICROSECOND,
    _parse_utc,
    as_float,
    format_us,
    from_epoch_us,
    read_table,
    to_epoch_us,
)
from .zones import EXTERNAL, ZoneSet

MPH_TO_MPS = 0.44704

# For two points under 1 degree apart in the plane, `haversine_m` is at most
# this many metres per planar degree of their separation: sin x <= x and
# cos <= 1 bound the haversine's sum by the planar one, and below 1 degree
# asin exceeds its argument by under 2e-5.  Dividing by 0.999 keeps the bound
# above the computed haversine by far more than either side's rounding.
_BOUND_M_PER_DEG = EARTH_RADIUS_M * math.pi / 180.0 * (1.0 + 2e-5) / 0.999


class FilterConfig(Settings):
    """The pipeline's thresholds by the `Settings` rule: `SynthConfig` mirrors the
    class attributes, the defaults, and takes their `_ranges`."""

    min_tweets: int = 100
    max_speed: float = 100 * MPH_TO_MPS  # m/s
    time_window: float = 7200.0  # s
    min_displacement_distance: float = 100.0  # m
    _fields = tuple(__annotations__)
    _ranges = (
        (("min_tweets",), lambda v: v >= 1, ">= 1"),
        (("max_speed", "time_window", "min_displacement_distance"), lambda v: 0 < v < math.inf,
         "finite and > 0"),
    )


class Displacement(NamedTuple):
    """One displacement as its row: the `DISPLACEMENT_COLUMNS` values in
    order, unformatted, with the three times as UTC epoch microseconds (see
    `records.to_epoch_us`).  `origin` and `destination` view the endpoints as
    `GeoPoint`s."""

    user_id: str
    origin_lat: float
    origin_lon: float
    dest_lat: float
    dest_lon: float
    start: int
    end: int
    duration: float  # s
    distance: float  # m
    origin_zone: str | None = None
    destination_zone: str | None = None
    crossing: int | None = None

    @property
    def origin(self) -> GeoPoint:
        return GeoPoint(self.origin_lat, self.origin_lon)

    @property
    def destination(self) -> GeoPoint:
        return GeoPoint(self.dest_lat, self.dest_lon)


class RunReport(Fields):
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
    _fields = tuple(__annotations__)  # the counts above, in order

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
            self.displacements_external_touching <= self.displacements_total,
            self.travelers <= self.displacements_total,
            self.travelers <= self.users_retained,
            self.speed_removed_records <= self.records_in_retained_timelines,
        ]
        if self.lines_read > 0:  # the parse fields are filled in (a library caller leaves them 0)
            kept = self.parsed_records - self.duplicates_removed
            checks += [
                self.duplicates_removed <= self.parsed_records,
                self.records_in_retained_timelines <= kept,
            ]
        if not all(checks):
            raise ValidationError(f"inconsistent run report: {self}")

    def to_dict(self) -> dict:
        d = dict(zip(self._fields, self._values()))
        d["average_displacements_per_traveler"] = self.average_displacements_per_traveler
        return d


def filter_active_users(
    timelines: dict[str, UserTimeline], cfg: FilterConfig
) -> dict[str, UserTimeline]:
    """Keep users with at least `min_tweets` records (inclusive threshold)."""
    return {uid: tl for uid, tl in timelines.items() if len(tl) >= cfg.min_tweets}


def remove_speed_violations(
    tl: UserTimeline, cfg: FilterConfig
) -> tuple[UserTimeline, list[TweetRecord]]:
    """Drop records implying an implausible speed from the previous survivor.

    Scanning in time order, whenever the pair (previous survivor, next
    record) exceeds `max_speed` the later record is removed and the scan
    re-evaluates the survivor against the following record.  A zero time
    gap counts as infinite speed when the points are farther apart than
    `min_displacement_distance`.  Returns the surviving timeline and the
    removed records, as `UserTimeline.records` shows them.
    """
    times, lats, lons = tl.times, tl.lats, tl.lons
    if len(times) < 2:
        return tl, []
    kept = [0]
    removed: list[TweetRecord] = []
    max_speed = cfg.max_speed
    min_dist = cfg.min_displacement_distance
    for i in range(1, len(times)):
        p = kept[-1]
        dt = (times[i] - times[p]) / 1_000_000
        dist = haversine_m(lats[p], lons[p], lats[i], lons[i])
        if dt <= 0.0:
            violates = dist > min_dist
        else:
            violates = dist / dt > max_speed
        if violates:
            removed.append(TweetRecord(tl.user_id, lats[i], lons[i], times[i]))
        else:
            kept.append(i)
    return UserTimeline(
        tl.user_id,
        array("q", list(map(times.__getitem__, kept))),
        array("d", list(map(lats.__getitem__, kept))),
        array("d", list(map(lons.__getitem__, kept))),
    ), removed


def extract_displacements(tl: UserTimeline, cfg: FilterConfig) -> list[Displacement]:
    """Pair consecutive records into displacements.

    A pair qualifies when 0 < gap <= time_window and the endpoints are at
    least `min_displacement_distance` apart.  Pairs slide: a record may end
    one displacement and start the next.
    """
    out: list[Displacement] = []
    times, lats, lons = tl.times, tl.lats, tl.lons
    window = cfg.time_window
    min_dist = cfg.min_displacement_distance
    for a in range(len(times) - 1):
        b = a + 1
        dt = (times[b] - times[a]) / 1_000_000
        if not 0.0 < dt <= window:
            continue
        dist = haversine_m(lats[a], lons[a], lats[b], lons[b])
        if dist < min_dist:
            continue
        out.append(
            Displacement(tl.user_id, lats[a], lons[a], lats[b], lons[b], times[a], times[b], dt, dist)
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
        crossing = to_epoch_us(from_epoch_us(d.start) + timedelta(seconds=d.duration / 2.0))
    else:
        crossing = d.start
    return d._replace(origin_zone=origin_zone, destination_zone=dest_zone, crossing=crossing)


def _scan(
    timelines: dict[str, UserTimeline], zs: ZoneSet, cfg: FilterConfig, report: RunReport
) -> Iterator[tuple]:
    """Every displacement of the retained users as a plain tuple of the
    `Displacement` fields, in one scan of each timeline.

    Users come in sorted order and each user's displacements in time order,
    so the sequence is canonical.  The scan keeps the previous survivor.
    Each row is tested against it with the rule of
    `remove_speed_violations`; a kept row forms with it exactly the
    consecutive pair `extract_displacements` sees next, so the same gap and
    distance decide the window and distance tests, and each displacement's
    fields are yielded once, labeled as `label_displacement` labels them.
    The exact distance is computed only where a test needs it: a pair with a
    positive gap whose planar bound (`_BOUND_M_PER_DEG`) is below both
    ``max_speed * dt`` and, within the window, `min_displacement_distance`
    is kept and is no displacement whatever its haversine, so the survivor
    moves on without one.
    The three times stay epoch microseconds: the crossing is the datetime
    arithmetic of `label_displacement` done on the integers.  `report`'s
    user, record, speed-removal and displacement counts are set once the
    iterator is exhausted.
    """
    active = filter_active_users(timelines, cfg)
    label = zs.label_point
    max_speed = cfg.max_speed
    window = cfg.time_window
    min_dist = cfg.min_displacement_distance
    min_dist2 = min_dist * min_dist
    bound2_per_deg2 = _BOUND_M_PER_DEG * _BOUND_M_PER_DEG
    total = inter = external = travelers = removed = 0
    for uid in sorted(active):
        before = total
        tl = active[uid]
        rows = zip(tl.times, tl.lats, tl.lons)
        p_t, p_lat, p_lon = next(rows)
        for t, lat, lon in rows:
            dt = (t - p_t) / 1_000_000
            if dt > 0.0:
                dlat = lat - p_lat
                dlon = lon - p_lon
                near = dlat * dlat + dlon * dlon
                if near < 1.0:
                    bound2 = near * bound2_per_deg2
                    v = max_speed * dt
                    if bound2 < v * v and (dt > window or bound2 < min_dist2):
                        p_t, p_lat, p_lon = t, lat, lon  # kept, and no displacement
                        continue
            dist = haversine_m(p_lat, p_lon, lat, lon)
            if dt <= 0.0:
                violates = dist > min_dist
            else:
                violates = dist / dt > max_speed
            if violates:
                removed += 1
                continue
            if 0.0 < dt <= window and dist >= min_dist:
                origin_zone = label(GeoPoint(p_lat, p_lon))
                dest_zone = label(GeoPoint(lat, lon))
                total += 1
                if origin_zone != dest_zone:
                    inter += 1
                    crossing = p_t + timedelta(seconds=dt / 2.0) // _MICROSECOND
                else:
                    crossing = p_t
                if EXTERNAL in (origin_zone, dest_zone):
                    external += 1
                yield (
                    uid, p_lat, p_lon, lat, lon, p_t, t, dt, dist,
                    origin_zone, dest_zone, crossing,
                )
            p_t, p_lat, p_lon = t, lat, lon
        if total > before:
            travelers += 1
    report.users_total = len(timelines)
    report.users_retained = len(active)
    report.users_dropped = len(timelines) - len(active)
    report.records_in_retained_timelines = sum(map(len, active.values()))
    report.speed_removed_records = removed
    report.displacements_total = total
    report.displacements_inter_zone = inter
    report.displacements_intra_zone = total - inter
    report.displacements_external_touching = external
    report.travelers = travelers


def run_extraction(
    timelines: dict[str, UserTimeline],
    zs: ZoneSet,
    cfg: FilterConfig,
    workers: int = 1,
) -> tuple[list[Displacement], RunReport]:
    """Run the per-user pipeline over all timelines: `Displacement`s of the
    rows `_scan` yields, and the report it fills.

    The result equals `label_displacement` over `extract_displacements` over
    `remove_speed_violations`, user by user, with users in sorted order and
    each user's displacements in time order.  `extract_to_csv` writes the
    same scan's rows without building them.  `workers` is accepted and
    ignored: extraction is serial.
    """
    report = RunReport()
    return list(map(Displacement._make, _scan(timelines, zs, cfg, report))), report


def extract_to_csv(
    timelines: dict[str, UserTimeline], zs: ZoneSet, cfg: FilterConfig, fh: IO[str]
) -> RunReport:
    """`run_extraction`, with `write_displacements_csv` writing each row of
    the one `_scan` to `fh` as soon as the scan finds it; returns the report.
    No `Displacement` is built or held."""
    report = RunReport()
    write_displacements_csv(_scan(timelines, zs, cfg, report), fh)
    return report


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


def _format_row(row: tuple, ids: CsvFields) -> str:
    """A `_scan` tuple or a `Displacement` as its whole `DISPLACEMENT_COLUMNS`
    line, as `write_table` writes it: the floats by `repr`, the times by
    `format_us`, no zone and no crossing as empty fields (a crossing of 0 is
    the epoch) and the ids through `ids`."""
    (uid, origin_lat, origin_lon, dest_lat, dest_lon, start, end, duration, distance,
     origin_zone, dest_zone, crossing) = row
    return (
        f"{ids[uid]},{origin_lat!r},{origin_lon!r},{dest_lat!r},{dest_lon!r},"
        f"{format_us(start)},{format_us(end)},{duration!r},{distance!r},"
        f"{ids[origin_zone] if origin_zone else ''},{ids[dest_zone] if dest_zone else ''},"
        f"{'' if crossing is None else format_us(crossing)}\n"
    )


def _parse_fields(row: list[str]) -> tuple:
    """The inverse of `_format_row` on a CSV row, with the three times as `timezone.utc`
    datetimes (`from_epoch_us` of the fields' integers).  Every column is
    parsed, in column order, so the first bad value in a row names the
    error."""
    return (
        row[0], as_float(row[1]), as_float(row[2]), as_float(row[3]), as_float(row[4]),
        _parse_utc(row[5]), _parse_utc(row[6]), as_float(row[7]), as_float(row[8]),
        row[9] or None, row[10] or None, _parse_utc(row[11]) if row[11] else None,
    )


def write_displacements_csv(displacements: Iterable[Displacement | tuple], fh: IO[str]) -> None:
    """The `DISPLACEMENT_COLUMNS` header, then `_format_row` of each
    `Displacement` or `_scan` tuple."""
    fh.write(",".join(DISPLACEMENT_COLUMNS) + "\n")
    fh.writelines(map(_format_row, displacements, repeat(CsvFields())))


def read_displacements_csv(source: str | IO[str]) -> list[Displacement]:
    return [
        Displacement(*row[:5], to_epoch_us(row[5]), to_epoch_us(row[6]), *row[7:11],
                     None if row[11] is None else to_epoch_us(row[11]))
        for row in read_table(source, DISPLACEMENT_COLUMNS, _parse_fields, "displacement CSV")
    ]


#: The columns of a displacement that aggregation uses:
#: ``(user_id, origin_zone, dest_zone, crossing)``.
ODRow = tuple[str, str | None, str | None, datetime | None]
_od_fields = itemgetter(0, 9, 10, 11)  # a `_parse_fields` row -> `ODRow`


def _od_row(row: list[str]) -> ODRow:
    # The row goes through `_parse_fields`, the parser of the full read, so a
    # bad value in a dropped column raises the same error at the same line.
    # The stream stops there, part way through the walk that consumes it;
    # `analyze` writes its products only after the walk.
    return _od_fields(_parse_fields(row))


def read_od_rows(source: str | IO[str]) -> Iterator[ODRow]:
    """`read_displacements_csv` projected onto `ODRow`s and read lazily: the
    same checks and errors, without building a `Displacement` per row or
    holding the rows read (see `read_table`)."""
    return read_table(source, DISPLACEMENT_COLUMNS, _od_row, "displacement CSV")

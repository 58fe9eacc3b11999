"""The one-pass ingest: input lines to per-user timelines.

It builds on `records` and sits apart from it: every command compiles
`records`, and CPython's compiler peaks about 0.24 MB higher on a module of
over 4,096 tokens, which `records` with this loop would be.
"""

from __future__ import annotations

import math
from array import array
from datetime import datetime, timezone, tzinfo
from operator import itemgetter, le, lt
from typing import IO, Iterable

from .records import (
    EPOCH,
    Ingest,
    RejectedLine,
    UserTimeline,
    _DIGIT_Z,
    _check_share,
    _open_lines,
    _raw_rows,
    as_float,
    parse_timestamp,
)


def load_timelines(
    source: str | IO | Iterable[str],
    format: str = "csv",
    legacy_tz: tzinfo | None = None,
) -> Ingest:
    """Parse, deduplicate and build timelines in one pass over the input.

    One loop body takes each row `_raw_rows` yields, makes the checks of
    `_valid_rows` in its order with its reasons (that validator, which
    `parse_records` runs, is the reference), and appends a valid record
    straight onto its user's three columns: the time in epoch microseconds,
    the latitude and the longitude.  No `TweetRecord` is built and `text` is
    not kept.  Then, one user at a time, the rule of `dedupe_records` and
    `build_timelines` is applied to the `(time, lat, lon)` rows: the first of
    each exact row in input order is kept (``0.0 == -0.0``, so the first one
    read stands) and the kept rows are stable-sorted by time into fresh
    arrays.  Times that strictly increase hold no duplicate and are in order;
    times that never decrease are in order.  Timelines, rejects and counts are
    those of `build_timelines(dedupe_records(parse_records(...).records)[0])`.
    """
    rejects: list[RejectedLine] = []
    columns: dict[str, tuple[array, array, array]] = {}
    last_uid = None  # whose appends are bound
    fromisoformat, utc, epoch = datetime.fromisoformat, timezone.utc, EPOCH
    with _open_lines(source, "input") as lines:
        for lineno, uid, lat, lon, ts, _ in _raw_rows(lines, format, rejects):
            try:
                if not uid:
                    raise ValueError("missing user_id")
                if "\r" in uid:
                    raise ValueError("user_id holds a carriage return")
                try:
                    lat = as_float(lat)
                    lon = as_float(lon)
                except ValueError:
                    raise ValueError("non-numeric coordinates")
                if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):  # NaN fails too
                    if not (math.isfinite(lat) and math.isfinite(lon)):
                        raise ValueError("non-finite coordinates")
                    raise ValueError(
                        "longitude out of range" if -90.0 <= lat <= 90.0 else "latitude out of range"
                    )
                # `_parse_utc`: a failed fast path leaves the reason to `parse_timestamp`.
                ts = str(ts)
                dt = None
                if ts.endswith(_DIGIT_Z):
                    try:
                        dt = fromisoformat(ts)
                    except ValueError:
                        pass
                if dt is None or dt.tzinfo is not utc:
                    dt = parse_timestamp(ts, legacy_tz)
            except ValueError as exc:
                rejects.append(RejectedLine(lineno, str(exc)))
                continue
            if uid != last_uid:
                cols = columns.get(uid)
                if cols is None:
                    cols = columns[uid] = (array("q"), array("d"), array("d"))
                add_t, add_lat, add_lon = cols[0].append, cols[1].append, cols[2].append
                last_uid = uid
            td = dt - epoch  # `to_epoch_us` of `dt`, the same integer
            add_t((td.days * 86_400 + td.seconds) * 1_000_000 + td.microseconds)
            add_lat(lat)
            add_lon(lon)

    parsed = sum(len(cols[0]) for cols in columns.values())
    _check_share(len(rejects), parsed + len(rejects), format)
    timelines: dict[str, UserTimeline] = {}
    duplicates = 0
    # Popping each user's raw columns frees them once their kept rows are copied.
    for uid in list(columns):
        times, lats, lons = columns.pop(uid)
        later = times[1:]
        if all(map(lt, times, later)):
            timelines[uid] = UserTimeline(uid, times[:], lats[:], lons[:])  # exactly sized
            continue
        rows = dict.fromkeys(zip(times, lats, lons))
        if not all(map(le, times, later)):
            rows = sorted(rows, key=itemgetter(0))
        duplicates += len(times) - len(rows)
        # From a list, not an iterator, an array is allocated at its exact size.
        timelines[uid] = UserTimeline(
            uid,
            array("q", [row[0] for row in rows]),
            array("d", [row[1] for row in rows]),
            array("d", [row[2] for row in rows]),
        )
        del rows  # not held while the next user's rows are built
    return Ingest(timelines, rejects, parsed + len(rejects), parsed, duplicates)

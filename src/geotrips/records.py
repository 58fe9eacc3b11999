"""Parsing and organization of raw geotagged records.

The canonical file layout is CSV with header ``user_id,lat,lon,timestamp,text``
or JSON-lines with the same field names.  Timestamps are ISO 8601 with an
explicit UTC offset; the display-style ``8/2/2014 21:58`` form is accepted
only when a legacy timezone is configured.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone, tzinfo
from typing import IO, Callable, Iterable, Iterator, TypeVar

from .errors import FormatMismatchError, ValidationError

CSV_COLUMNS = ("user_id", "lat", "lon", "timestamp", "text")
LEGACY_TIMESTAMP_FORMAT = "%m/%d/%Y %H:%M"

T = TypeVar("T")


@dataclass(frozen=True, slots=True)
class TweetRecord:
    user_id: str
    lat: float
    lon: float
    timestamp: datetime  # timezone-aware, normalized to UTC
    text: str = ""


@dataclass(frozen=True, slots=True)
class RejectedLine:
    line_number: int
    reason: str


@dataclass(frozen=True)
class UserTimeline:
    user_id: str
    records: tuple[TweetRecord, ...]


@dataclass
class ParseResult:
    records: list[TweetRecord]
    rejects: list[RejectedLine]
    lines_read: int  # data lines, header excluded


def parse_timestamp(raw: str, legacy_tz: tzinfo | None = None) -> datetime:
    """Parse a timestamp string to an aware UTC datetime.

    Raises ValueError with a human-readable reason on failure.
    """
    text = raw.strip()
    if not text:
        raise ValueError("empty timestamp")
    iso = text[:-1] + "+00:00" if text.endswith(("Z", "z")) else text
    try:
        dt = datetime.fromisoformat(iso)
    except ValueError:
        if legacy_tz is None:
            raise ValueError(f"unparseable timestamp {text!r}")
        try:
            dt = datetime.strptime(text, LEGACY_TIMESTAMP_FORMAT)
        except ValueError:
            raise ValueError(f"unparseable timestamp {text!r}") from None
    if dt.tzinfo is None:
        if legacy_tz is None:
            raise ValueError(f"timestamp {text!r} lacks a UTC offset")
        dt = dt.replace(tzinfo=legacy_tz)
    try:
        return dt.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"timestamp {text!r} is out of range in UTC") from None


def format_timestamp(dt: datetime) -> str:
    """Canonical serialization: ISO 8601 in UTC with a Z suffix."""
    if dt.tzinfo is not timezone.utc:
        dt = dt.astimezone(timezone.utc)
    return dt.isoformat().replace("+00:00", "Z")


_DIGIT_Z = tuple(f"{d}Z" for d in "0123456789")


def _parse_utc(raw: str, legacy_tz: tzinfo | None = None) -> datetime:
    """`parse_timestamp` with a fast path for the canonical `...<digit>Z` form.

    Such a string goes straight to `datetime.fromisoformat`; anything else,
    a failure, or a result not in `timezone.utc` takes `parse_timestamp`, so
    values and error messages are the same.
    """
    if raw.endswith(_DIGIT_Z):
        try:
            dt = datetime.fromisoformat(raw)
        except ValueError:
            pass
        else:
            if dt.tzinfo is timezone.utc:
                return dt
    return parse_timestamp(raw, legacy_tz)


@contextmanager
def _open_lines(source) -> Iterator[Iterable[str]]:
    """Give the text lines of a path, a text or binary handle, or an iterable
    of lines.  A file opened here is closed on every exit; a handle the
    caller passed in is never closed."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            yield fh
    elif hasattr(source, "read") and isinstance(source.read(0), bytes):
        text = io.TextIOWrapper(source, encoding="utf-8", newline="")
        try:
            yield text
        finally:
            text.detach()  # a wrapper closes its buffer when collected
    else:
        yield source


def read_table(
    source, columns: tuple[str, ...], convert: Callable[[list[str]], T], what: str
) -> list[T]:
    """Read a CSV table whose header is `columns`: `convert` each non-blank
    row of exactly `len(columns)` fields, in order.

    A wrong header, a row with another field count, a CSV syntax error or a
    `ValueError` from `convert` raises `ValidationError("<file>:<line>:
    <reason>")`; `what` stands for the file name of a handle that has none.
    """
    name = source if isinstance(source, str) else getattr(source, "name", what)
    with _open_lines(source) as lines:
        reader = csv.reader(lines)
        try:
            header = next(reader, None)
            if header is None or tuple(h.strip() for h in header) != columns:
                raise ValueError(f"expected header {','.join(columns)!r}")
            out = []
            for row in reader:
                if len(row) == len(columns):
                    out.append(convert(row))
                elif row:
                    raise ValueError(f"expected {len(columns)} fields, got {len(row)}")
        except (ValueError, csv.Error) as exc:
            raise ValidationError(f"{name}:{reader.line_num or 1}: {exc}") from None
    return out


def _raw_rows(lines: Iterable[str], format: str, rejects: list[RejectedLine]) -> Iterator[tuple]:
    """Yield `(line_number, user_id, lat, lon, timestamp, text)` for each data
    line of the right shape: a 5-field CSV row or a JSON object.  A line of
    the wrong shape or CSV syntax goes to `rejects`; blank lines are skipped."""
    if format == "csv":
        reader = csv.reader(lines)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise FormatMismatchError(f"unreadable CSV header: {exc}") from None
        if header is None:
            return
        if [h.strip() for h in header] != list(CSV_COLUMNS):
            raise FormatMismatchError(
                f"expected CSV header {','.join(CSV_COLUMNS)!r}, got {','.join(header)!r}"
            )
        while True:
            try:
                for row in reader:
                    if len(row) == len(CSV_COLUMNS):
                        yield (reader.line_num, *row)
                    elif row:
                        rejects.append(
                            RejectedLine(reader.line_num, f"expected 5 fields, got {len(row)}")
                        )
                return
            except csv.Error as exc:  # e.g. an oversized field; the reader resumes
                rejects.append(RejectedLine(reader.line_num, str(exc)))
    elif format == "jsonl":
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:  # RecursionError: deep nesting
                rejects.append(RejectedLine(lineno, str(exc)))
                continue
            if not isinstance(obj, dict):
                rejects.append(RejectedLine(lineno, "line is not a JSON object"))
                continue
            yield (
                lineno,
                str(obj.get("user_id", "")),
                obj.get("lat"),
                obj.get("lon"),
                obj.get("timestamp", ""),
                obj.get("text", ""),
            )
    else:
        raise ValueError(f"unknown format {format!r}")


def _valid_records(
    lines: Iterable[str], format: str, legacy_tz: tzinfo | None, rejects: list[RejectedLine]
) -> Iterator[TweetRecord]:
    """The row validator: yield each valid record in input order, append a
    `RejectedLine` for each bad line, and raise `FormatMismatchError` at the
    end if more than half of the data lines were rejected.

    Every data line either yields a record or is rejected, so the caller
    gets `lines_read` as records yielded plus rejects.  User ids are
    interned: a user's records share one string.
    """
    parsed = 0
    for lineno, user_id, lat_raw, lon_raw, ts_raw, text in _raw_rows(lines, format, rejects):
        try:
            if not user_id:
                raise ValueError("missing user_id")
            try:
                lat = float(lat_raw)
                lon = float(lon_raw)
            except (TypeError, ValueError):
                raise ValueError("non-numeric coordinates")
            if not (math.isfinite(lat) and math.isfinite(lon)):
                raise ValueError("non-finite coordinates")
            if not -90.0 <= lat <= 90.0:
                raise ValueError("latitude out of range")
            if not -180.0 <= lon <= 180.0:
                raise ValueError("longitude out of range")
            ts = _parse_utc(str(ts_raw), legacy_tz)
        except ValueError as exc:
            rejects.append(RejectedLine(lineno, str(exc)))
            continue
        parsed += 1
        yield TweetRecord(
            sys.intern(user_id), lat, lon, ts, "" if text is None else str(text)
        )
    lines_read = parsed + len(rejects)
    if lines_read > 0 and len(rejects) * 2 > lines_read:
        raise FormatMismatchError(
            f"{len(rejects)} of {lines_read} lines rejected; input does not match the {format} schema"
        )


def parse_records(
    source: str | IO | Iterable[str],
    format: str = "csv",
    legacy_tz: tzinfo | None = None,
) -> ParseResult:
    """Parse CSV or JSONL input into records plus a reject log.

    Malformed lines never abort the run; they are collected with their
    physical line number and a reason.  If more than half of the data lines
    are rejected the whole input is treated as a format mismatch.
    """
    rejects: list[RejectedLine] = []
    with _open_lines(source) as lines:
        records = list(_valid_records(lines, format, legacy_tz, rejects))
    return ParseResult(records, rejects, len(records) + len(rejects))


def write_records_csv(records: Iterable[TweetRecord], fh: IO[str]) -> None:
    """Serialize records in the canonical CSV layout (round-trip safe)."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([r.user_id, repr(r.lat), repr(r.lon), format_timestamp(r.timestamp), r.text])


def write_rejects_csv(rejects: Iterable[RejectedLine], fh: IO[str]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["line_number", "reason"])
    for r in rejects:
        writer.writerow([r.line_number, r.reason])


def dedupe_records(records: Iterable[TweetRecord]) -> tuple[list[TweetRecord], int]:
    """Drop exact duplicates (same user, timestamp, coordinates).

    Returns the surviving records in input order and the number dropped.
    Streaming collectors re-deliver posts; exact duplicates would otherwise
    surface as zero-length displacements.
    """
    seen: set[tuple[str, datetime, float, float]] = set()
    kept: list[TweetRecord] = []
    dropped = 0
    for r in records:
        key = (r.user_id, r.timestamp, r.lat, r.lon)
        if key in seen:
            dropped += 1
        else:
            seen.add(key)
            kept.append(r)
    return kept, dropped


def _by_timestamp(r: TweetRecord) -> datetime:
    return r.timestamp


def build_timelines(records: Iterable[TweetRecord]) -> dict[str, UserTimeline]:
    """Partition records by user and sort each user's records by time.

    The sort is stable: records with equal timestamps keep input order.
    """
    by_user: dict[str, list[TweetRecord]] = {}
    for r in records:
        by_user.setdefault(r.user_id, []).append(r)
    return {
        uid: UserTimeline(uid, tuple(sorted(recs, key=_by_timestamp)))
        for uid, recs in by_user.items()
    }


@dataclass
class Ingest:
    """Per-user timelines plus the counts and reject log of the input."""

    timelines: dict[str, UserTimeline]
    rejects: list[RejectedLine]
    lines_read: int  # data lines, header excluded
    parsed_records: int
    duplicates: int


def load_timelines(
    source: str | IO | Iterable[str],
    format: str = "csv",
    legacy_tz: tzinfo | None = None,
) -> Ingest:
    """Parse, deduplicate and build timelines in one pass over the input.

    Each valid record goes straight onto its user's list.  Each list is then
    stable-sorted by timestamp, and inside each run of equal timestamps only
    the first record per `(lat, lon)` in input order is kept.  Timelines,
    rejects and counts are those of
    `build_timelines(dedupe_records(parse_records(...).records)[0])`, since a
    duplicate shares the user and instant of the record it repeats.
    """
    rejects: list[RejectedLine] = []
    by_user: dict[str, list[TweetRecord]] = {}
    with _open_lines(source) as lines:
        for r in _valid_records(lines, format, legacy_tz, rejects):
            recs = by_user.get(r.user_id)
            if recs is None:
                by_user[r.user_id] = [r]
            else:
                recs.append(r)

    timelines: dict[str, UserTimeline] = {}
    parsed = duplicates = 0
    for uid, recs in by_user.items():
        parsed += len(recs)
        recs.sort(key=_by_timestamp)
        kept = []
        run_ts = None
        run_coords = None  # (lat, lon) pairs of the run, built once it has two records
        for r in recs:
            if r.timestamp != run_ts:
                run_ts = r.timestamp
                run_coords = None
                kept.append(r)
                continue
            coord = (r.lat, r.lon)
            if run_coords is None:
                first = kept[-1]
                run_coords = {(first.lat, first.lon)}
            if coord in run_coords:
                duplicates += 1
            else:
                run_coords.add(coord)
                kept.append(r)
        timelines[uid] = UserTimeline(uid, tuple(kept))
    return Ingest(timelines, rejects, parsed + len(rejects), parsed, duplicates)

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
from array import array
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone, tzinfo
from functools import lru_cache
from itertools import repeat
from operator import itemgetter
from types import SimpleNamespace
from typing import IO, Callable, Iterable, Iterator, NamedTuple, TypeVar

from .errors import ConfigError, FormatMismatchError, ValidationError

CSV_COLUMNS = ("user_id", "lat", "lon", "timestamp", "text")
LEGACY_TIMESTAMP_FORMAT = "%m/%d/%Y %H:%M"
#: The instant a timeline's `times` count from, in microseconds.
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)

T = TypeVar("T")


class TweetRecord(NamedTuple):
    """One record as its row, with `time` in UTC epoch microseconds (see
    `to_epoch_us`; `from_epoch_us` gives it back as a datetime)."""

    user_id: str
    lat: float
    lon: float
    time: int
    text: str = ""


class RejectedLine(NamedTuple):
    line_number: int
    reason: str


def to_epoch_us(dt: datetime) -> int:
    """An aware datetime as whole microseconds since `EPOCH`; exact."""
    return (dt - EPOCH) // _MICROSECOND


def from_epoch_us(t: int) -> datetime:
    """The `timezone.utc` datetime `t` microseconds after `EPOCH`."""
    return EPOCH + timedelta(microseconds=t)


class Fields:
    """`==`, a `Name(field=value, ...)` repr and a constructor over the attributes
    named in `_fields`, whose class attributes are the defaults."""

    __slots__ = ()

    def __init__(self, *values, **named):
        """Each field from `values` in order or from `named`, else its default."""
        given = dict(zip(self._fields, values), **named)  # too many values, or a name twice, get lost
        if len(given) < len(values) + len(named) or not given.keys() <= set(self._fields):
            raise TypeError(f"{type(self).__qualname__}() takes one value for each of {self._fields} at most,"
                            f" got {len(values)} values and the names {[*named]}")
        for name in self._fields:
            object.__setattr__(self, name, given[name] if name in given else getattr(self, name))
        self._check()

    def _check(self) -> None:
        """What a class checks once built: nothing here."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({values})"


class Frozen(Fields):
    """`Fields` that refuse assignment once built and hash their values."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):  # pickle and copy rebuild through `__init__`
        return type(self), self._values()


class Settings(Frozen):
    """The one rule for settings: each value has its default's type by `has_type` (a
    default of None: the class checks it), then passes the test of its `(names, test, rule)`
    row of `_ranges`, else `ConfigError("<name> = <value> is not a valid <type>")` or
    `ConfigError("<name> = <value> is out of range: must be <rule>")`."""

    def _check(self) -> None:
        for name in self._fields:
            value, default = getattr(self, name), getattr(type(self), name)
            if default is not None and not has_type(value, type(default)):
                raise ConfigError(f"{name} = {shown(value)} is not a valid {type(default).__name__}")
        for names, in_range, rule in self._ranges:
            for name in names:
                value = getattr(self, name)
                if not in_range(value):  # comparisons with NaN are false
                    raise ConfigError(f"{name} = {shown(value)} is out of range: must be {rule}")


class UserTimeline(Frozen):
    """One user's records in time order, as three parallel columns.

    `times` holds UTC epoch microseconds (`array('q')`), `lats` and `lons`
    the coordinates (`array('d')`); row `i` is one record.  A gap between
    two rows in seconds is `(t1 - t0) / 1_000_000`, which equals
    `timedelta.total_seconds()` of the two datetimes.  No text is kept.
    """

    __slots__ = _fields = ("user_id", "times", "lats", "lons")

    @classmethod
    def from_records(cls, user_id: str, records: Iterable[TweetRecord]) -> UserTimeline:
        """The timeline of `records`, taken in the order given."""
        recs = list(records)
        return cls(
            user_id,
            array("q", [r.time for r in recs]),
            array("d", [r.lat for r in recs]),
            array("d", [r.lon for r in recs]),
        )

    def __len__(self) -> int:
        return len(self.times)

    @property
    def records(self) -> tuple[TweetRecord, ...]:
        """The rows as `TweetRecord`s with empty `text`, built on each access.
        A view for library callers; the pipeline reads the columns."""
        return tuple(map(TweetRecord, repeat(self.user_id), self.lats, self.lons, self.times))


class ParseResult(NamedTuple):
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


def as_float(value) -> float:
    """`float(value)`: the one rule for a number read from outside, except that a
    bool or an int too large for a float is no number.  What is no number raises
    `ValueError` (text, with `float`'s message); each reader checks the range."""
    if value.__class__ is bool:  # float(True) is 1.0
        raise ValueError("a bool is not a number")
    try:
        return float(value)
    except (TypeError, OverflowError) as exc:  # e.g. None; an int of 400 digits
        raise ValueError(str(exc)) from None


def has_type(value, kind: type) -> bool:
    """Whether a setting's `value` is a `kind`, by its exact type: an int that
    `as_float` takes passes for a float, a bool for neither, and a tuple is of floats."""
    if kind is tuple:
        return type(value) is tuple and all(has_type(x, float) for x in value)
    if kind is float and type(value) is int:
        try:
            return math.isfinite(as_float(value))
        except ValueError:  # too large for a float
            return False
    return type(value) is kind


def shown(value) -> str:
    """`repr(value)` for a message, except that a value that is or holds an int past
    Python's int-to-text limit, which `repr` refuses, shows as what it is."""
    try:
        return repr(value)
    except ValueError:
        big = f"int of over {sys.get_int_max_str_digits()} digits"
        if isinstance(value, int):
            return f"<{'negative ' * (value < 0)}{big}>"
        return f"<{type(value).__name__} holding an {big}>"


def resolve_tz(name) -> tzinfo:
    """The IANA time zone `name`, else `ConfigError("tz = <name!r> is not a valid timezone")`."""
    from zoneinfo import ZoneInfo, ZoneInfoNotFoundError  # not loaded by `import geotrips`
    try:
        return ZoneInfo(name)
    except (ZoneInfoNotFoundError, ValueError, TypeError):
        raise ConfigError(f"tz = {shown(name)} is not a valid timezone") from None


_TWO_DIGITS = tuple(f"{i:02d}" for i in range(60))


@lru_cache(maxsize=1024)
def _date_prefix(day: int) -> str:
    """``YYYY-MM-DDT`` of the UTC day `day` days after `EPOCH`."""
    return (EPOCH + timedelta(days=day)).date().isoformat() + "T"


def format_us(t: int) -> str:
    """The canonical text of the instant `t` (epoch microseconds): ISO 8601 in
    UTC with a ``Z`` suffix and the microseconds only when not zero, as
    `datetime.isoformat` writes them."""
    day, us = divmod(t, 86_400_000_000)
    s, us = divmod(us, 1_000_000)
    m, s = divmod(s, 60)
    h, m = divmod(m, 60)
    d = _TWO_DIGITS
    if us:
        return f"{_date_prefix(day)}{d[h]}:{d[m]}:{d[s]}.{us:06d}Z"
    return f"{_date_prefix(day)}{d[h]}:{d[m]}:{d[s]}Z"


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


def source_name(source, what: str) -> str:
    """A message's name for `source`: the path, the handle's `name` or `what`."""
    return source if isinstance(source, str) else getattr(source, "name", what)


@contextmanager
def _open_lines(source, what: str) -> Iterator[Iterable[str]]:
    """Give the text lines of a path, a text or binary handle, or an iterable
    of lines.  Here alone bytes become text: a path is opened as a binary
    handle, and each binary handle is read as UTF-8 less a leading BOM.  A byte
    that is not UTF-8 raises `ValidationError("<file>:<line>: not UTF-8: byte
    0x..: <reason>")`, `what` naming a nameless handle; it closes only what it opens."""
    if isinstance(source, str):
        with open(source, "rb") as fh, _open_lines(fh, what) as lines:
            yield lines
        return
    binary = hasattr(source, "read") and isinstance(source.read(0), bytes)
    start = source.tell() if binary and source.seekable() else None
    try:
        if binary:
            text = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
            try:
                yield text
            finally:
                text.detach()  # a wrapper closes its buffer when collected
        else:
            yield source
    except UnicodeDecodeError as exc:
        # The decoder reads ahead of the reader: count the lines anew.
        line = _undecodable_line(source, start)
        where = source_name(source, what) + (f":{line}" if line else "")
        raise ValidationError(
            f"{where}: not UTF-8: byte {exc.object[exc.start]:#04x}: {exc.reason}"
        ) from None


def read_json(source, what: str):
    """The JSON document in `source`, read by `_open_lines` with line ends
    made ``\n`` (`json` counts lines by ``\n``); JSON it cannot read is a
    `ConfigError` naming the file and, for bad syntax, the line and column."""
    name = source_name(source, what)
    try:
        with _open_lines(source, what) as fh:
            text = fh.read().replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{name}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


def read_table(
    source, columns: tuple[str, ...], convert: Callable[[list[str]], T], what: str
) -> Iterator[T]:
    """Read a CSV table whose header is `columns`: yield `convert` of each
    non-blank row of exactly `len(columns)` fields, in order, as the rows are
    read.  Nothing is read before the first `next`; a caller that wants every
    row takes `list(...)` of it.

    `_open_lines(source, what)` decodes the file.  A wrong header, a row with
    another field count, a CSV syntax error or a `ValueError` from `convert`
    raises `ValidationError("<file>:<line>: <reason>")` when the walk reaches
    it.  A file opened here is closed when the walk ends or the generator is
    closed; a handle the caller passed in stays open.
    """
    name = source_name(source, what)
    reader = None  # until `_open_lines` gives lines: a closed handle fails at line 1
    try:
        with _open_lines(source, what) as lines:
            reader = csv.reader(lines)
            header = next(reader, None)
            if header is None or tuple(h.strip() for h in header) != columns:
                raise ValueError(f"expected header {','.join(columns)!r}")
            for row in reader:
                if len(row) == len(columns):
                    yield convert(row)
                elif row:
                    raise ValueError(f"expected {len(columns)} fields, got {len(row)}")
    except (ValueError, csv.Error) as exc:
        raise ValidationError(f"{name}:{getattr(reader, 'line_num', 0) or 1}: {exc}") from None


def write_table(fh: IO[str], columns: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write a CSV table to `fh`: the header `columns`, then each of `rows`,
    every line ended by ``\n``.  The mirror of `read_table`: every table the
    package writes goes through it.  A field holding a ``\r`` is quoted as one
    holding a ``\n`` is: the writer quotes a field holding a character of its
    line ending, so it ends lines with ``\r\n``, and `fh` gets them with ``\n``."""
    write = fh.write
    writer = csv.writer(
        SimpleNamespace(write=lambda line: write(line[:-2] + "\n")), lineterminator="\r\n"
    )
    writer.writerow(columns)
    writer.writerows(rows)


class CsvFields(dict):
    """Each text field as `write_table` writes it, quoted or not as `csv`
    decides: `csv` writes each distinct field once, and it is looked up after."""

    def __missing__(self, field: str) -> str:
        line = io.StringIO()
        csv.writer(line).writerow((field, ""))  # a lone empty field would be quoted
        self[field] = text = line.getvalue()[:-3]  # less ",\r\n"
        return text


def _undecodable_line(fh, start: int | None) -> int | None:
    """Number of the first line of the binary handle `fh` that is not UTF-8,
    read again from offset `start` and ended where the text reader ends lines
    (``\n``, ``\r``, ``\r\n``).  None if `start` is None: no seekable handle."""
    if start is None:
        return None
    fh.seek(start)
    lines = (line for chunk in fh for line in chunk.splitlines())
    for lineno, line in enumerate(lines, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return lineno
    return None


# `JSONDecoder.raw_decode` without its Python frame: `(value, end)` of the
# JSON value at an index, StopIteration if none starts there.
_scan_json = json.JSONDecoder().scan_once
_LINE_ENDINGS = ("\n", "\r\n", "\r")


def _raw_rows(lines: Iterable[str], format: str, rejects: list[RejectedLine]) -> Iterator[tuple]:
    """Yield `(line_number, user_id, lat, lon, timestamp, text)` for each data
    line of the right shape: a 5-field CSV row or a JSON object.  A line of
    the wrong shape or CSV syntax goes to `rejects`; blank lines are skipped.
    `user_id` is a string.  In a JSON object, a `user_id` that is not a string
    or an integer (which becomes its digits) is the wrong shape too; the other
    values are as decoded."""
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
            # A line that is one JSON value and a line ending is decoded
            # directly; any other goes through `json.loads`, whose value or
            # error it is (a `bytes` line, which it also reads, is a TypeError
            # here).
            try:
                obj, end = _scan_json(line, 0)
                if end != len(line) and line[end:] not in _LINE_ENDINGS:
                    raise ValueError
            except (StopIteration, ValueError, TypeError, RecursionError):
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
            user_id = obj.get("user_id", "")
            if user_id.__class__ is not str:
                if user_id.__class__ is not int:  # null, a boolean, a float, ...
                    rejects.append(RejectedLine(lineno, "user_id is not a string or an integer"))
                    continue
                user_id = str(user_id)
            lat, lon = obj.get("lat"), obj.get("lon")
            yield lineno, user_id, lat, lon, obj.get("timestamp", ""), obj.get("text", "")
    else:
        raise ValueError(f"unknown format {format!r}")


def _valid_rows(
    lines: Iterable[str], format: str, legacy_tz: tzinfo | None, rejects: list[RejectedLine]
) -> Iterator[tuple]:
    """The row validator: yield `(user_id, lat, lon, time, text)` for
    each valid record in input order, append a `RejectedLine` for each bad
    line, and raise `FormatMismatchError` at the end if more than half of
    the data lines were rejected.  `_open_lines` refuses bytes that are not
    UTF-8.

    `time` is in UTC epoch microseconds; `text` is as read (a JSON line's
    may be any value, or None).  Every data line either yields a row or is
    rejected, so the caller gets `lines_read` as rows yielded plus rejects.
    """
    parsed = 0
    for lineno, user_id, lat_raw, lon_raw, ts_raw, text in _raw_rows(lines, format, rejects):
        try:
            if not user_id:
                raise ValueError("missing user_id")
            if "\r" in user_id:  # a CSV writer would leave it unquoted
                raise ValueError("user_id holds a carriage return")
            try:
                lat = as_float(lat_raw)
                lon = as_float(lon_raw)
            except ValueError:
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
        yield user_id, lat, lon, to_epoch_us(ts), text
    _check_share(len(rejects), parsed + len(rejects), format)


def _check_share(rejected: int, lines_read: int, format: str) -> None:
    """The more-than-half rule: `FormatMismatchError` if over half the data lines were rejected."""
    if lines_read > 0 and rejected * 2 > lines_read:
        raise FormatMismatchError(
            f"{rejected} of {lines_read} lines rejected; input does not match the {format} schema"
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
    with _open_lines(source, "input") as lines:
        # User ids are interned: a user's records share one string.
        records = [
            TweetRecord(sys.intern(uid), lat, lon, t, "" if text is None else str(text))
            for uid, lat, lon, t, text in _valid_rows(lines, format, legacy_tz, rejects)
        ]
    return ParseResult(records, rejects, len(records) + len(rejects))


def write_records_csv(records: Iterable[TweetRecord], fh: IO[str]) -> None:
    """Serialize records in the canonical CSV layout (round-trip safe)."""
    write_table(fh, CSV_COLUMNS, (
        (r.user_id, repr(r.lat), repr(r.lon), format_us(r.time), r.text) for r in records
    ))


def write_rejects_csv(rejects: Iterable[RejectedLine], fh: IO[str]) -> None:
    write_table(fh, ("line_number", "reason"), rejects)


def dedupe_records(records: Iterable[TweetRecord]) -> tuple[list[TweetRecord], int]:
    """Drop exact duplicates (same user, coordinates and time: the row less `text`).

    Returns the surviving records in input order and the number dropped.
    Streaming collectors re-deliver posts; exact duplicates would otherwise
    surface as zero-length displacements.
    """
    seen: set[tuple[str, float, float, int]] = set()
    kept: list[TweetRecord] = []
    dropped = 0
    for r in records:
        key = r[:4]
        if key in seen:
            dropped += 1
        else:
            seen.add(key)
            kept.append(r)
    return kept, dropped


def build_timelines(records: Iterable[TweetRecord]) -> dict[str, UserTimeline]:
    """Partition records by user and sort each user's records by time.

    The sort is stable: records with equal timestamps keep input order.
    """
    by_user: dict[str, list[TweetRecord]] = {}
    for r in records:
        by_user.setdefault(r.user_id, []).append(r)
    by_time = itemgetter(3)  # `TweetRecord.time`
    return {
        uid: UserTimeline.from_records(uid, sorted(recs, key=by_time))
        for uid, recs in by_user.items()
    }


class Ingest(NamedTuple):
    """Per-user timelines plus the counts and reject log of the input, as
    `ingest.load_timelines` gives them."""

    timelines: dict[str, UserTimeline]
    rejects: list[RejectedLine]
    lines_read: int  # data lines, header excluded
    parsed_records: int
    duplicates: int

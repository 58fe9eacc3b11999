"""Aggregation of displacements into travel-behavior products: user-group
partitions, hour-of-day histograms, OD matrices, and distribution
comparisons against external reference series."""

from __future__ import annotations

import math
from datetime import tzinfo
from typing import IO, Iterable, NamedTuple, Sequence

from .displacement import Displacement, ODRow
from .errors import EmptyODError, ValidationError
from .records import Fields, as_float, from_epoch_us, read_table, write_table
from .zones import EXTERNAL

#: Wildcard for direction filters: matches any zone.
ANY = None

_SUM_TOL = 1e-9  # how far from 1 a series `compare_distributions` takes may sum

#: The cutoffs `classify_groups` takes: the test, and its rule as text.
CUTOFF_RANGE = (lambda cutoff: 0.0 < cutoff < 1.0, "in (0, 1)")


def _od_row_of(d: Displacement) -> ODRow:
    """`d` as the `ODRow` that `read_od_rows` gives for its line."""
    crossing = None if d.crossing is None else from_epoch_us(d.crossing)
    return d.user_id, d.origin_zone, d.destination_zone, crossing


class UserProfile(NamedTuple):
    user_id: str
    tweet_count: int
    displacement_count: int


class GroupPartition(NamedTuple):
    percentile_cutoff: float
    high_group: list[str]
    low_group: list[str]
    share_of_displacements_high: float


class TimeOfDayHistogram(Fields):
    """Counts by local hour of one `(origin, destination)`; each list fresh unless given."""

    _fields = ("direction", "weekday_counts", "weekend_counts")

    def __init__(self, direction, weekday_counts=None, weekend_counts=None):
        super().__init__(direction, weekday_counts or [0] * 24, weekend_counts or [0] * 24)

    def _normalized(self, counts: list[int]) -> list[float]:
        total = sum(counts)
        if total == 0:
            return [0.0] * 24
        return [c / total for c in counts]

    @property
    def weekday_fracs(self) -> list[float]:
        return self._normalized(self.weekday_counts)

    @property
    def weekend_fracs(self) -> list[float]:
        return self._normalized(self.weekend_counts)

    @property
    def total(self) -> int:
        return sum(self.weekday_counts) + sum(self.weekend_counts)


class ODMatrix(NamedTuple):
    zone_ids: list[str]
    counts: list[list[int]]

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    @property
    def proportions(self) -> list[list[float]]:
        total = self.total
        return [[c / total for c in row] for row in self.counts]


class DistributionComparison(NamedTuple):
    labels: list[str]
    series_a: list[float]
    series_b: list[float]
    l1_distance: float
    pearson_r: float


def classify_groups(
    profiles: Sequence[UserProfile], cutoff: float = 0.01
) -> GroupPartition:
    """Split users into a high-frequency top group and the rest.

    Users are ranked by tweet count descending (ties broken by user_id
    ascending); the high group takes ceil(cutoff * N) users, at least 1.
    """
    if not profiles:
        raise ValidationError("cannot classify an empty profile list")
    in_range, rule = CUTOFF_RANGE
    if not in_range(cutoff):
        raise ValidationError(f"cutoff must lie {rule}")
    ranked = sorted(profiles, key=lambda p: (-p.tweet_count, p.user_id))
    k = max(1, math.ceil(cutoff * len(ranked)))
    high = ranked[:k]
    low = ranked[k:]
    total_disp = sum(p.displacement_count for p in ranked)
    share = (
        sum(p.displacement_count for p in high) / total_disp if total_disp else 0.0
    )
    return GroupPartition(
        percentile_cutoff=cutoff,
        high_group=[p.user_id for p in high],
        low_group=[p.user_id for p in low],
        share_of_displacements_high=share,
    )


def aggregate(
    rows: Iterable[ODRow],
    tz: tzinfo | None,
    directions: Sequence[tuple[str | None, str | None]],
    include_intra: bool = False,
    include_external: bool = False,
) -> tuple[dict[tuple[str, str], int], list[TimeOfDayHistogram], dict[str, int]]:
    """One walk over displacement rows: the OD pair counts, one hour-of-day
    histogram per `(origin, destination)` direction, and the number of rows
    per user.

    A pair is counted when both zones are labeled, unless it is intra-zone
    (kept with `include_intra`) or touches EXTERNAL (kept with
    `include_external`).  A histogram bins the local hour of the crossing
    estimate in `tz`, Saturday and Sunday counting as weekend; it skips a row
    without one and, unless `include_intra` is set, a row that is not
    inter-zone (an intra-zone crossing estimate is just the start time).  A
    direction's `ANY` end matches every zone.  Each binned crossing is
    converted to `tz` once, whatever the number of directions.
    """
    pair_counts: dict[tuple[str, str], int] = {}
    per_user: dict[str, int] = {}
    hists = [TimeOfDayHistogram(direction=(o, t)) for o, t in directions]
    bins = [(*h.direction, h.weekday_counts, h.weekend_counts) for h in hists]
    for uid, o, t, crossing in rows:
        per_user[uid] = per_user.get(uid, 0) + 1
        labeled = o is not None and t is not None
        inter = labeled and o != t
        if (
            labeled
            and (inter or include_intra)
            and (include_external or (o != EXTERNAL and t != EXTERNAL))
        ):
            pair_counts[(o, t)] = pair_counts.get((o, t), 0) + 1
        if crossing is None or not (inter or include_intra):
            continue
        local = None
        for origin, destination, weekday, weekend in bins:
            if (origin is None or o == origin) and (destination is None or t == destination):
                if local is None:
                    local = crossing.astimezone(tz)
                    hour = local.hour
                    is_weekend = local.weekday() >= 5
                (weekend if is_weekend else weekday)[hour] += 1
    return pair_counts, hists, per_user


def od_matrix(pair_counts: dict[tuple[str, str], int]) -> ODMatrix:
    """The matrix of `aggregate`'s pair counts: zones sorted by id, with
    EXTERNAL last when a counted pair touches it."""
    if not pair_counts:
        raise EmptyODError("empty OD: no displacements survive the filters")
    zones = {z for pair in pair_counts for z in pair}
    ids = sorted(zones - {EXTERNAL})
    if EXTERNAL in zones:
        ids.append(EXTERNAL)
    index = {z: i for i, z in enumerate(ids)}
    counts = [[0] * len(ids) for _ in ids]
    for (o, t), c in pair_counts.items():
        counts[index[o]][index[t]] = c
    return ODMatrix(zone_ids=ids, counts=counts)


def time_of_day_histogram(
    displacements: Iterable[Displacement],
    tz: tzinfo,
    origin: str | None = ANY,
    destination: str | None = ANY,
    include_intra: bool = False,
) -> TimeOfDayHistogram:
    """Bin displacements by local hour of the crossing-time estimate.

    Saturday and Sunday in `tz` count as weekend.  Intra-zone displacements
    are excluded unless `include_intra` is set (see `aggregate`).
    """
    _, (hist,), _ = aggregate(
        map(_od_row_of, displacements), tz, [(origin, destination)], include_intra=include_intra
    )
    return hist


def aggregate_od(
    displacements: Iterable[Displacement],
    include_intra: bool = False,
    include_external: bool = False,
) -> ODMatrix:
    """Zone-by-zone displacement counts and proportions.

    `include_intra` keeps the diagonal; `include_external` keeps rows and
    columns touching the EXTERNAL label (see `aggregate`).  Proportions are
    normalized over the included cells only.
    """
    pair_counts, _, _ = aggregate(
        map(_od_row_of, displacements), None, (), include_intra, include_external
    )
    return od_matrix(pair_counts)


def compare_distributions(
    a: Sequence[float],
    b: Sequence[float],
    labels: Sequence[str] | None = None,
) -> DistributionComparison:
    """L1 distance and Pearson correlation between two series, each summing
    to 1 within `_SUM_TOL`."""
    import statistics  # only here: `analyze` does not load it
    if len(a) != len(b):
        raise ValidationError(f"series length mismatch: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValidationError("series must have at least 2 bins")
    for name, series in (("a", a), ("b", b)):
        if not abs(sum(series) - 1.0) <= _SUM_TOL:  # also a NaN sum
            raise ValidationError(f"series {name} is not normalized (sum={sum(series)!r})")
    l1 = sum(abs(x - y) for x, y in zip(a, b))
    try:
        r = statistics.correlation(a, b)
    except statistics.StatisticsError:
        r = math.nan  # constant series: correlation undefined
    if labels is None:
        labels = [str(i) for i in range(len(a))]
    return DistributionComparison(list(labels), list(a), list(b), l1, r)


def normalize(series: Sequence[float]) -> list[float]:
    total = sum(series)
    if total <= 0:
        raise ValidationError("cannot normalize a series with non-positive sum")
    return [x / total for x in series]


# ---------------------------------------------------------------------------
# CSV export / import


def write_od_csv(matrix: ODMatrix, fh: IO[str], kind: str = "counts") -> None:
    """Write the matrix as rows=origins, columns=destinations."""
    if kind not in ("counts", "proportions"):
        raise ValueError(f"unknown OD export kind {kind!r}")
    cells = matrix.counts if kind == "counts" else matrix.proportions
    write_table(fh, ["origin"] + matrix.zone_ids, (
        [zid] + [repr(c) if kind == "proportions" else c for c in row]
        for zid, row in zip(matrix.zone_ids, cells)
    ))


def write_histogram_csv(hist: TimeOfDayHistogram, fh: IO[str]) -> None:
    wf = hist.weekday_fracs
    ef = hist.weekend_fracs
    write_table(fh, ("hour", "weekday_count", "weekend_count", "weekday_frac", "weekend_frac"), (
        (h, hist.weekday_counts[h], hist.weekend_counts[h], repr(wf[h]), repr(ef[h]))
        for h in range(24)
    ))


def write_groups_csv(
    partition: GroupPartition, profiles: Sequence[UserProfile], fh: IO[str]
) -> None:
    by_id = {p.user_id: p for p in profiles}
    groups = (("HIGH_FREQUENCY", partition.high_group), ("LOW_FREQUENCY", partition.low_group))
    write_table(fh, ("user_id", "tweet_count", "displacement_count", "group"), (
        (uid, by_id[uid].tweet_count, by_id[uid].displacement_count, group)
        for group, ids in groups
        for uid in ids
    ))


def _series_point(row: list[str]) -> tuple[str, float]:
    value = as_float(row[1])
    if not math.isfinite(value):
        raise ValueError(f"value {row[1]!r} is not finite")
    return row[0], value


def read_series_csv(source: str | IO[str]) -> tuple[list[str], list[float]]:
    """Read a reference series CSV with header ``bin_label,value``; every
    value must be a finite number."""
    points = list(read_table(source, ("bin_label", "value"), _series_point, "series CSV"))
    return [label for label, _ in points], [value for _, value in points]

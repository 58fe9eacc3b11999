"""Aggregation of displacements into travel-behavior products: user-group
partitions, hour-of-day histograms, OD matrices, and distribution
comparisons against external reference series."""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass, field
from datetime import tzinfo
from typing import IO, Iterable, Sequence

from .displacement import Displacement
from .errors import EmptyODError, ValidationError
from .zones import EXTERNAL

#: Wildcard for direction filters: matches any zone.
ANY = None


@dataclass(frozen=True)
class UserProfile:
    user_id: str
    tweet_count: int
    displacement_count: int


@dataclass
class GroupPartition:
    percentile_cutoff: float
    high_group: list[str]
    low_group: list[str]
    share_of_displacements_high: float


@dataclass
class TimeOfDayHistogram:
    direction: tuple[str | None, str | None]
    weekday_counts: list[int] = field(default_factory=lambda: [0] * 24)
    weekend_counts: list[int] = field(default_factory=lambda: [0] * 24)

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


@dataclass
class ODMatrix:
    zone_ids: list[str]
    counts: list[list[int]]

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    @property
    def proportions(self) -> list[list[float]]:
        total = self.total
        return [[c / total for c in row] for row in self.counts]


@dataclass
class DistributionComparison:
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
    if not 0.0 < cutoff < 1.0:
        raise ValidationError("cutoff must lie in (0, 1)")
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


def _matches(d: Displacement, origin: str | None, destination: str | None) -> bool:
    if origin is not None and d.origin_zone != origin:
        return False
    if destination is not None and d.destination_zone != destination:
        return False
    return True


def time_of_day_histogram(
    displacements: Iterable[Displacement],
    tz: tzinfo,
    origin: str | None = ANY,
    destination: str | None = ANY,
    include_intra: bool = False,
) -> TimeOfDayHistogram:
    """Bin displacements by local hour of the crossing-time estimate.

    Saturday and Sunday in `tz` count as weekend.  Intra-zone displacements
    are excluded unless `include_intra` is set (their crossing estimate is
    just the start time).
    """
    hist = TimeOfDayHistogram(direction=(origin, destination))
    for d in displacements:
        if d.crossing_time_estimate is None:
            continue
        if not include_intra and not d.is_inter_zone:
            continue
        if not _matches(d, origin, destination):
            continue
        local = d.crossing_time_estimate.astimezone(tz)
        bins = hist.weekend_counts if local.weekday() >= 5 else hist.weekday_counts
        bins[local.hour] += 1
    return hist


def aggregate_od(
    displacements: Iterable[Displacement],
    include_intra: bool = False,
    include_external: bool = False,
) -> ODMatrix:
    """Zone-by-zone displacement counts and proportions.

    `include_intra` keeps the diagonal; `include_external` keeps rows and
    columns touching the EXTERNAL label.  Proportions are normalized over
    the included cells only.
    """
    pair_counts: dict[tuple[str, str], int] = {}
    for d in displacements:
        o, t = d.origin_zone, d.destination_zone
        if o is None or t is None:
            continue
        if not include_intra and o == t:
            continue
        if not include_external and (o == EXTERNAL or t == EXTERNAL):
            continue
        pair_counts[(o, t)] = pair_counts.get((o, t), 0) + 1
    if not pair_counts:
        raise EmptyODError("empty OD: no displacements survive the filters")
    ids = sorted({z for pair in pair_counts for z in pair} - {EXTERNAL})
    if include_external and any(EXTERNAL in pair for pair in pair_counts):
        ids.append(EXTERNAL)
    index = {z: i for i, z in enumerate(ids)}
    counts = [[0] * len(ids) for _ in ids]
    for (o, t), c in pair_counts.items():
        counts[index[o]][index[t]] = c
    return ODMatrix(zone_ids=ids, counts=counts)


def compare_distributions(
    a: Sequence[float],
    b: Sequence[float],
    labels: Sequence[str] | None = None,
    tol: float = 1e-9,
) -> DistributionComparison:
    """L1 distance and Pearson correlation between two normalized series."""
    if len(a) != len(b):
        raise ValidationError(f"series length mismatch: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValidationError("series must have at least 2 bins")
    for name, series in (("a", a), ("b", b)):
        if abs(sum(series) - 1.0) > tol:
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
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["origin"] + matrix.zone_ids)
    cells = matrix.counts if kind == "counts" else matrix.proportions
    for zid, row in zip(matrix.zone_ids, cells):
        writer.writerow([zid] + [repr(c) if kind == "proportions" else c for c in row])


def write_histogram_csv(hist: TimeOfDayHistogram, fh: IO[str]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["hour", "weekday_count", "weekend_count", "weekday_frac", "weekend_frac"])
    wf = hist.weekday_fracs
    ef = hist.weekend_fracs
    for h in range(24):
        writer.writerow(
            [h, hist.weekday_counts[h], hist.weekend_counts[h], repr(wf[h]), repr(ef[h])]
        )


def write_groups_csv(
    partition: GroupPartition, profiles: Sequence[UserProfile], fh: IO[str]
) -> None:
    by_id = {p.user_id: p for p in profiles}
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["user_id", "tweet_count", "displacement_count", "group"])
    for uid in partition.high_group:
        p = by_id[uid]
        writer.writerow([uid, p.tweet_count, p.displacement_count, "HIGH_FREQUENCY"])
    for uid in partition.low_group:
        p = by_id[uid]
        writer.writerow([uid, p.tweet_count, p.displacement_count, "LOW_FREQUENCY"])


def read_series_csv(source: str | IO[str]) -> tuple[list[str], list[float]]:
    """Read a reference series CSV with header ``bin_label,value``."""

    def _read(fh):
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["bin_label", "value"]:
            raise ValidationError("series CSV must have header 'bin_label,value'")
        labels, values = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ValidationError(f"bad series row: {row!r}")
            labels.append(row[0])
            try:
                values.append(float(row[1]))
            except ValueError:
                raise ValidationError(f"non-numeric series value {row[1]!r}") from None
        return labels, values

    if isinstance(source, str):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return _read(fh)
    return _read(source)

"""Whole runs against the reference stages.

`extract` then `analyze` run through `cli.main` on small drawn corpora, and
every product they write is compared byte for byte with the same product
built from the reference composition: `parse_records` → `dedupe_records` →
`build_timelines`, then per user `remove_speed_violations` →
`extract_displacements` → `label_displacement` (labeling by the unindexed
`label_point_scan`), then the per-call aggregations of `tests/oracles.py`,
each written through the package's own writer.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import tempfile
from datetime import timedelta, timezone
from types import SimpleNamespace
from typing import NamedTuple
from zoneinfo import ZoneInfo

from hypothesis import example, given, settings, strategies as st

from conftest import feature_collection, square_feature
from oracles import (
    displacements_per_user,
    histogram_per_call,
    is_inter_zone,
    label_point_scan,
    od_matrix_per_call,
    touches_external,
)

from geotrips.analytics import UserProfile, classify_groups, write_groups_csv
from geotrips.analytics import write_histogram_csv, write_od_csv
from geotrips.cli import USERS_COLUMNS, _write_json, main
from geotrips.displacement import (
    MPH_TO_MPS,
    FilterConfig,
    RunReport,
    extract_displacements,
    filter_active_users,
    label_displacement,
    remove_speed_violations,
    write_displacements_csv,
)
from geotrips.errors import EmptyODError, FormatMismatchError
from geotrips.geometry import EDGE_TOLERANCE_DEG, haversine_m
from geotrips.records import (
    CSV_COLUMNS,
    build_timelines,
    dedupe_records,
    format_us,
    from_epoch_us,
    parse_records,
    write_rejects_csv,
    write_table,
)
from geotrips.zones import load_zones

# alpha and beta share the border at lon -73.8; gamma overlaps both and is
# declared after them, so the overlap is theirs.
ZONE_MAP = feature_collection(
    square_feature("alpha", 40.0, -74.0),
    square_feature("beta", 40.0, -73.8),
    square_feature("gamma", 40.1, -73.9),
    square_feature("delta", 40.3, -73.7),
)
ZONES = load_zones(ZONE_MAP)
# `label_displacement`'s zone set, labeling by the scan over every edge.
SCAN_ZONES = SimpleNamespace(label_point=lambda p: label_point_scan(ZONES, p))

HOME = (40.05, -73.95)
NORTH = (40.0509, -73.95)
SITES = (
    HOME,
    NORTH,  # exactly the distance floor from HOME
    (40.050001, -73.95),  # ~0.1 m from HOME
    (40.05, -73.65),  # beta: exactly the speed limit from HOME in 900 s
    (40.05, -73.8),  # on the shared border: alpha
    (40.05, -73.8 + EDGE_TOLERANCE_DEG / 2),  # in beta, within alpha's edge tolerance
    (40.05, -73.8 + 1e-9),  # just past it: beta
    (40.15, -73.85),  # alpha and gamma: alpha
    (40.25, -73.75),  # gamma alone
    (40.4, -73.6),  # delta
    (40.6, -74.5),  # no zone
    (43.5, -70.0),  # ~500 km away: the speed filter removes it at every gap below
)
BETA = 3
T0_US = 1_394_337_600_000_000  # 2014-03-09T04:00:00Z, a Sunday: DST starts in New York
# Zero, sub-second and odd-microsecond gaps, HOME -> beta at the speed limit
# (900 s), exactly the window, one microsecond past it, and a day.
GAPS_US = (0, 1, 333_333, 45_000_000, 601_000_001, 900_000_000, 1_800_000_003,
           7_200_000_000, 7_200_000_001, 10_800_000_000, 86_400_000_000)
TZS = ("UTC", "America/New_York", "Asia/Kolkata")
TEXTS = ("", "hi, there", 'say "x"', "two\nlines", "café")
# How a record's instant is written: UTC with Z, with another offset, legacy
# 'M/D/YYYY HH:MM' in the run's timezone (to the minute) and naive ISO in it;
# the last two are rejected without --legacy-timestamps.
STYLES = ("z", "offset", "legacy", "naive")
OFFSET = timezone(-timedelta(hours=3, minutes=30))
BAD_ROWS = (
    ["u9", "abc", "-73.9", "2014-03-09T05:00:00Z", ""],
    ["", "40.05", "-73.95", "2014-03-09T05:00:00Z", ""],
    ["u9", "91", "-73.95", "2014-03-09T05:00:00Z", ""],
    ["u9", "40.05", "nan", "2014-03-09T05:00:00Z", ""],
    ["u9", "40.05", "-73.95", "soon", ""],
    ["u\r9", "40.05", "-73.95", "2014-03-09T05:00:00Z", ""],
    ["u9", "40.05"],
    ["u9", "40.05", "-73.95", "2014-03-09T05:00:00Z", "", "extra"],
)
BAD_JSON_LINES = (
    "{not json",
    "[1, 2]",
    '{"user_id": null, "lat": 40.05, "lon": -73.95, "timestamp": "2014-03-09T05:00:00Z"}',
    '{"user_id": "u9", "lat": true, "lon": -73.95, "timestamp": "2014-03-09T05:00:00Z"}',
    '{"user_id": "u9", "lat": 40.05, "lon": -73.95, "timestamp": 1394341200}',
    '{"user_id": 1.5, "lat": 40.05, "lon": -73.95, "timestamp": "2014-03-09T05:00:00Z"}',
)


def mph_for(speed: float) -> float:
    """A `--max-speed-mph` value whose m/s is `speed` exactly, where the
    quotient or a float next to it gives it."""
    mph = speed / MPH_TO_MPS
    for candidate in (mph, math.nextafter(mph, math.inf), math.nextafter(mph, 0.0)):
        if candidate * MPH_TO_MPS == speed:
            return candidate
    return mph


MIN_DIST = haversine_m(*HOME, *NORTH)
MAX_SPEED_MPH = mph_for(haversine_m(*HOME, *SITES[BETA]) / 900.0)


class Run(NamedTuple):
    """One drawn run: the corpus and the flags of both commands."""

    fmt: str
    tz: str
    legacy: bool
    min_tweets: int
    # Per user: the first site, then (gap_us, site, style, text, duplicated)
    # per further record; the first record is written "z" with no text.
    users: list
    bad: list  # indices into BAD_ROWS or BAD_JSON_LINES
    shuffle: int  # seed of the line order
    crlf: bool
    bom: bool
    focal: str | None
    include_intra: bool
    include_external: bool
    cutoff: float


def corpus_text(run: Run) -> str:
    tz = ZoneInfo(run.tz)

    def stamp(t: int, style: str) -> str:
        dt = from_epoch_us(t)
        if style == "z":
            return format_us(t)
        if style == "offset":
            return dt.astimezone(OFFSET).isoformat()
        if style == "legacy":
            return dt.astimezone(tz).strftime("%m/%d/%Y %H:%M")
        return dt.astimezone(tz).replace(tzinfo=None).isoformat()

    entries = []  # (user_id, lat, lon, timestamp, text) per record line
    for i, (first, steps) in enumerate(run.users):
        uid = f"u{len(run.users) - i}"  # insertion order is not sorted order
        t = T0_US
        records = [(t, first, "z", "", False)]
        for gap_us, site, style, text, duplicated in steps:
            t += gap_us
            records.append((t, site, style, text, duplicated))
        for t, site, style, text, duplicated in records:
            lat, lon = SITES[site]
            entries.append([uid, lat, lon, stamp(t, style), text])
            if duplicated:  # the same instant written another way
                entries.append([uid, lat, lon, stamp(t, "offset" if style == "z" else "z"), ""])
    if run.fmt == "csv":
        lines = [[uid, repr(lat), repr(lon), ts, text] for uid, lat, lon, ts, text in entries]
        lines += [BAD_ROWS[b] for b in run.bad]
    else:
        lines = [json.dumps(dict(zip(CSV_COLUMNS, e))) for e in entries]
        lines += [BAD_JSON_LINES[b] for b in run.bad]
    random.Random(run.shuffle).shuffle(lines)
    if run.fmt == "csv":
        fh = io.StringIO(newline="")
        write_table(fh, CSV_COLUMNS, lines)
        text = fh.getvalue()
    else:
        text = "".join(line + "\n" for line in lines)
    if run.crlf:
        text = text.replace("\n", "\r\n")
    return ("\ufeff" if run.bom else "") + text


@st.composite
def runs(draw) -> Run:
    fmt = draw(st.sampled_from(["csv", "jsonl"]))
    site = st.integers(0, len(SITES) - 1)
    step = st.tuples(
        st.sampled_from(GAPS_US), site,
        st.sampled_from(("z", "z", "z") + STYLES), st.sampled_from(TEXTS), st.booleans(),
    )
    bad = st.integers(0, len(BAD_ROWS if fmt == "csv" else BAD_JSON_LINES) - 1)
    return Run(
        fmt=fmt,
        tz=draw(st.sampled_from(TZS)),
        legacy=draw(st.booleans()),
        min_tweets=draw(st.integers(1, 4)),
        users=draw(st.lists(st.tuples(site, st.lists(step, max_size=8)), min_size=1, max_size=3)),
        bad=draw(st.lists(bad, max_size=3)),
        shuffle=draw(st.integers(0, 2**16)),
        crlf=draw(st.booleans()),
        bom=draw(st.booleans()),
        focal=draw(st.sampled_from([None, "alpha", "beta", "gamma"])),
        include_intra=draw(st.booleans()),
        include_external=draw(st.booleans()),
        cutoff=draw(st.sampled_from([0.01, 0.5])),
    )


def write_reference(corpus: str, run: Run, out: str, an: str) -> tuple[bool, bool]:
    """Write into `out` and `an` what `extract` and `analyze` should write,
    from the reference stages; whether each should succeed."""
    cfg = FilterConfig(
        min_tweets=run.min_tweets,
        max_speed=MAX_SPEED_MPH * MPH_TO_MPS,
        time_window=2 * 3600.0,
        min_displacement_distance=MIN_DIST,
    )
    try:
        parsed = parse_records(corpus, run.fmt, ZoneInfo(run.tz) if run.legacy else None)
    except FormatMismatchError:
        return False, False
    kept, duplicates = dedupe_records(parsed.records)
    timelines = build_timelines(kept)
    active = filter_active_users(timelines, cfg)
    ds, removed = [], 0
    for uid in sorted(active):
        survivors, dropped = remove_speed_violations(active[uid], cfg)
        removed += len(dropped)
        ds += [label_displacement(d, SCAN_ZONES) for d in extract_displacements(survivors, cfg)]
    report = RunReport(
        lines_read=parsed.lines_read,
        rejected_lines=len(parsed.rejects),
        parsed_records=len(parsed.records),
        duplicates_removed=duplicates,
        users_total=len(timelines),
        users_retained=len(active),
        users_dropped=len(timelines) - len(active),
        records_in_retained_timelines=sum(map(len, active.values())),
        speed_removed_records=removed,
        displacements_total=len(ds),
        displacements_inter_zone=sum(map(is_inter_zone, ds)),
        displacements_intra_zone=sum(not is_inter_zone(d) for d in ds),
        displacements_external_touching=sum(map(touches_external, ds)),
        travelers=len({d.user_id for d in ds}),
    )
    os.makedirs(out)
    with text_file(out, "displacements.csv") as fh:
        write_displacements_csv(ds, fh)
    with text_file(out, "rejects.csv") as fh:
        write_rejects_csv(parsed.rejects, fh)
    with text_file(out, "users.csv") as fh:
        write_table(fh, USERS_COLUMNS, ((uid, len(timelines[uid])) for uid in sorted(timelines)))
    _write_json(os.path.join(out, "report.json"), report.to_dict())

    try:
        matrix = od_matrix_per_call(ds, run.include_intra, run.include_external)
    except EmptyODError:
        return True, False
    per_user = displacements_per_user(ds)
    profiles = [
        UserProfile(uid, len(timelines[uid]), per_user.get(uid, 0)) for uid in sorted(timelines)
    ]
    directions = {"all": (None, None)}
    if run.focal:
        directions[f"from_{run.focal}"] = (run.focal, None)
        directions[f"to_{run.focal}"] = (None, run.focal)
    os.makedirs(an)
    with text_file(an, "od_counts.csv") as fh:
        write_od_csv(matrix, fh, kind="counts")
    with text_file(an, "od_proportions.csv") as fh:
        write_od_csv(matrix, fh, kind="proportions")
    for suffix, (o, t) in directions.items():
        with text_file(an, f"histogram_{suffix}.csv") as fh:
            hist = histogram_per_call(ds, ZoneInfo(run.tz), o, t, run.include_intra)
            write_histogram_csv(hist, fh)
    with text_file(an, "groups.csv") as fh:
        write_groups_csv(classify_groups(profiles, cutoff=run.cutoff), profiles, fh)
    return True, True


def text_file(directory: str, name: str):
    """`name` in `directory`, opened for writing as the commands open their
    products."""
    return open(os.path.join(directory, name), "w", encoding="utf-8", newline="")


def products(directory: str) -> dict[str, bytes]:
    """The bytes of each file in `directory` but `timings.json`, which holds
    wall times."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name != "timings.json":
            with open(os.path.join(directory, name), "rb") as fh:
                out[name] = fh.read()
    return out


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`main(argv)`'s exit status and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(runs())
@example(
    Run(
        fmt="csv", tz="America/New_York", legacy=True, min_tweets=3,
        users=[
            (
                0,  # HOME
                [
                    (0, 2, "z", "", False),  # zero-gap near repeat: kept
                    (0, 1, "offset", "", False),  # zero gap at the distance floor: kept
                    (0, BETA, "z", "", False),  # zero-gap far repeat: removed
                    (7_200_000_000, BETA, "z", "a, b", True),  # gap exactly the window
                    (45_000_000, 11, "z", "", False),  # teleport: removed
                    (1_800_000_003, 10, "offset", "", False),  # odd microseconds, to no zone
                    (900_000_000, 0, "naive", "", False),
                    (7_200_000_001, 1, "z", "", False),  # one microsecond past the window
                    (45_000_000, 0, "z", "", False),  # exactly at the distance floor
                    (900_000_000, BETA, "z", "", True),  # exactly at the speed limit
                    (600_000_000, 5, "z", "", False),  # beta side of the border, within tolerance
                    (600_000_000, 6, "legacy", "", False),  # past it
                    (600_000_000, 7, "z", "", False),  # alpha over gamma
                    (600_000_000, 8, "z", "two\nlines", False),
                ],
            ),
            (11, [(10_800_000_000, 11, "z", "", False), (0, 0, "z", "", False)]),
            (0, [(45_000_000, 1, "z", "", False)]),  # below min_tweets
        ],
        bad=[0, 6], shuffle=7, crlf=True, bom=True, focal="beta",
        include_intra=False, include_external=True, cutoff=0.5,
    )
)
@example(  # more than half the lines rejected: extract refuses the input
    Run(
        fmt="jsonl", tz="Asia/Kolkata", legacy=False, min_tweets=1,
        users=[(0, [(900_000_000, BETA, "naive", "", False), (60_000_000, 0, "legacy", "", False)])],
        bad=[2], shuffle=0, crlf=False, bom=False, focal=None,
        include_intra=True, include_external=True, cutoff=0.01,
    )
)
def test_whole_run_matches_the_reference_stages(run):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = os.path.join(tmp, f"corpus.{run.fmt}")
        with open(corpus, "w", encoding="utf-8", newline="") as fh:
            fh.write(corpus_text(run))
        zones = os.path.join(tmp, "zones.geojson")
        with open(zones, "w", encoding="utf-8") as fh:
            json.dump(ZONE_MAP, fh)
        ref, ref_an = os.path.join(tmp, "ref"), os.path.join(tmp, "ref_an")
        extracts, analyzes = write_reference(corpus, run, ref, ref_an)

        out, an = os.path.join(tmp, "out"), os.path.join(tmp, "an")
        code, err = run_cli([
            "extract", "--input", corpus, "--zones", zones, "--out", out, "--tz", run.tz,
            "--min-tweets", str(run.min_tweets), "--max-speed-mph", repr(MAX_SPEED_MPH),
            "--time-window-h", "2", "--min-displacement-m", repr(MIN_DIST),
            *(["--legacy-timestamps"] if run.legacy else []),
        ])
        if not extracts:
            assert code == 1 and not os.path.exists(out), err
            return
        assert code == 0, err
        assert products(out) == products(ref)

        code, err = run_cli([
            "analyze", "--displacements", os.path.join(out, "displacements.csv"),
            "--out", an, "--tz", run.tz, "--group-cutoff", repr(run.cutoff),
            *(["--focal-zone", run.focal] if run.focal else []),
            *(["--include-intra"] if run.include_intra else []),
            *(["--include-external"] if run.include_external else []),
        ])
        if not analyzes:
            assert code == 1 and err.startswith("error: empty OD"), err
            assert not os.path.exists(an)
            return
        assert code == 0, err
        assert products(an) == products(ref_an)

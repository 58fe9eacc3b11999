"""Command-line entry point: extract, analyze, compare, synth."""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys
import time

from .displacement import FilterConfig, MPH_TO_MPS, RunReport, extract_to_csv, read_od_rows
from .errors import ConfigError, GeotripsError, ValidationError
from .ingest import load_timelines
from .records import (
    _open_lines, read_table, resolve_tz, write_records_csv, write_rejects_csv, write_table,
)
from .zones import load_zones

TZ_ENV_VAR = "GEOTRIPS_TZ"
USERS_COLUMNS = ("user_id", "tweet_count")
FORMATS = ("csv", "jsonl")
# Config-file spellings of a boolean, compared in lower case.
BOOLS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}


def _config_defaults(path: str, parser: argparse.ArgumentParser) -> dict:
    """The flat `key = value` file at `path` ('#' starts a comment) as
    defaults for `parser`: each key is the `dest` of one of its options, and
    each value is read as that option reads it."""
    options = {a.dest: a for a in parser._actions if a.option_strings}
    del options["help"], options["config"]
    out = {}
    with _open_lines(path, path) as fh:
        lines = list(fh)
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        action = options.get(key)
        if action is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        # A flag that takes no value (store_true) reads a BOOLS spelling.
        cast = bool if action.nargs == 0 else action.type or str
        try:
            value = BOOLS[raw.lower()] if cast is bool else cast(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"{path}: {key} = {raw!r} is not a valid {cast.__name__}") from None
        if action.choices is not None and value not in action.choices:
            raise ConfigError(f"{path}: {key} = {raw!r} is not one of {', '.join(action.choices)}")
        out[key] = value
    return out


def _default_tz() -> str:
    return os.environ.get(TZ_ENV_VAR, "UTC")


def _infer_format(path: str, declared: str | None) -> str:
    if declared:
        return declared
    return "jsonl" if path.endswith((".jsonl", ".ndjson", ".json")) else "csv"


def _write_json(path: str | None, doc) -> None:
    """`doc` as indented JSON with sorted keys and a final newline, to the file
    `path`, or to stdout if no path is given."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


@contextlib.contextmanager
def _products(out_dir: str):
    """`part(name)`, the path `<name>.tmp` in `out_dir` to write a product to.  Each
    replaces `name` if the block ends normally; on a failure none does."""
    paths: list[str] = []

    def part(name: str) -> str:
        path = os.path.join(out_dir, name)
        if os.path.isdir(path):  # now, not at its rename, after others have replaced theirs
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        paths.append(path)
        return path + ".tmp"

    try:
        yield part
        for path in paths:
            os.replace(path + ".tmp", path)
    finally:
        for path in paths:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path + ".tmp")


def _stage(t0: float, items_in: dict[str, int], items_out: dict[str, int]) -> dict:
    """One stage of a command's `timings.json`: its seconds since `t0`, and
    the items it took in and gave out, counted from what the run holds."""
    return {"s": time.perf_counter() - t0, "in": items_in, "out": items_out}


def _peak_rss() -> dict[str, float]:
    """`{"peak_rss_mb": <this process's peak RSS in MiB>}`, or `{}` where the
    platform has no `resource` module."""
    try:
        import resource  # Unix only
    except ImportError:
        return {}
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB; bytes on macOS
    return {"peak_rss_mb": peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)}


def _print_report_table(report: RunReport) -> None:
    rows = report.to_dict()
    rows["average_displacements_per_traveler"] = report.formatted_average()
    width = max(len(k) for k in rows)
    for key, value in rows.items():
        print(f"{key:<{width}}  {value}")


def cmd_extract(args: argparse.Namespace) -> int:
    input_path, zones_path, out_dir = args.input, args.zones, args.out
    if input_path is None:
        raise ConfigError("no input file given (--input or config 'input')")
    if zones_path is None:
        raise ConfigError("no zones file given (--zones or config 'zones')")
    if not os.path.exists(input_path):
        raise ConfigError(f"input file not found: {input_path}")
    if not os.path.exists(zones_path):
        raise ConfigError(f"zones file not found: {zones_path}")

    cfg = FilterConfig(
        min_tweets=args.min_tweets,
        max_speed=args.max_speed_mph * MPH_TO_MPS,
        time_window=args.time_window_h * 3600.0,
        min_displacement_distance=args.min_displacement_m,
    )
    tz = resolve_tz(args.tz)
    fmt = _infer_format(input_path, args.format)
    legacy_tz = tz if args.legacy_timestamps else None

    os.makedirs(out_dir, exist_ok=True)
    ledger: dict = {}

    t0 = time.perf_counter()
    ingest = load_timelines(input_path, format=fmt, legacy_tz=legacy_tz)
    timelines = ingest.timelines
    ledger["ingest"] = _stage(t0, {"lines": ingest.lines_read}, {
        "records": ingest.parsed_records, "rejects": len(ingest.rejects),
        "duplicates": ingest.duplicates, "users": len(timelines),
    })

    t0 = time.perf_counter()
    zs = load_zones(zones_path)
    polygons = [p for z in zs.zones for p in z.polygons]
    ledger["zones"] = _stage(t0, {"features": len(zs.zones)}, {
        "polygons": len(polygons),
        "vertices": sum(len(r.lats) - 1 for p in polygons for r in (p.outer, *p.holes)),
    })

    # No product replaces an earlier one until the report validates and all are written.
    with _products(out_dir) as part:
        t0 = time.perf_counter()
        with open(part("displacements.csv"), "w", encoding="utf-8", newline="") as fh:
            report = extract_to_csv(timelines, zs, cfg, fh)
        ledger["scan_and_write"] = _stage(t0, {
            "users": report.users_retained, "records": report.records_in_retained_timelines,
        }, {
            "speed_removals": report.speed_removed_records,
            "label_calls": 2 * report.displacements_total,
            "displacements": report.displacements_total,
        })

        report.lines_read = ingest.lines_read
        report.rejected_lines = len(ingest.rejects)
        report.parsed_records = ingest.parsed_records
        report.duplicates_removed = ingest.duplicates
        report.validate()

        t0 = time.perf_counter()
        with open(part("rejects.csv"), "w", encoding="utf-8", newline="") as fh:
            write_rejects_csv(ingest.rejects, fh)
        with open(part("users.csv"), "w", encoding="utf-8", newline="") as fh:
            write_table(fh, USERS_COLUMNS, ((uid, len(timelines[uid])) for uid in sorted(timelines)))
        ledger["write"] = _stage(t0, {"rejects": len(ingest.rejects), "users": len(timelines)},
                                 {"files": 2})

        # Timings go to a separate file so report.json stays byte-identical
        # across runs and worker counts.
        _write_json(part("report.json"), report.to_dict())
        _write_json(part("timings.json"), ledger | _peak_rss())

    _print_report_table(report)
    return 0


def _profiles_from(disp_counts: dict[str, int], users_path: str) -> list[analytics.UserProfile]:
    """The rows of `users_path` as profiles, each with its count in
    `disp_counts`.  A negative count, a count below a user's displacements
    plus one (k displacements join k + 1 records), a user listed twice, or a
    user with displacements but no row means the file is not the one written
    with the displacements: it is a `ValidationError` naming the file and the
    line or the user."""
    from . import analytics

    seen: set[str] = set()

    def profile(row: list[str]) -> analytics.UserProfile:
        uid = row[0]
        p = analytics.UserProfile(uid, int(row[1]), disp_counts.get(uid, 0))
        if p.tweet_count < 0:
            raise ValueError(f"user_id {uid!r} has a negative tweet_count {p.tweet_count}")
        if p.displacement_count and p.tweet_count <= p.displacement_count:
            raise ValueError(
                f"user_id {uid!r} has tweet_count {p.tweet_count}, too few for "
                f"{p.displacement_count} displacements"
            )
        if uid in seen:
            raise ValueError(f"user_id {uid!r} is listed twice")
        seen.add(uid)
        return p

    profiles = list(read_table(users_path, USERS_COLUMNS, profile, "users CSV"))
    missing = disp_counts.keys() - seen
    if missing:
        raise ValidationError(
            f"{users_path}: no row for user {min(missing)!r}, who has displacements"
        )
    return profiles


def cmd_analyze(args: argparse.Namespace) -> int:
    from . import analytics

    disp_path, users_path, out_dir = args.displacements, args.users, args.out
    focal = args.focal_zone
    if disp_path is None:
        raise ConfigError("no displacement CSV given")
    if not os.path.exists(disp_path):
        raise ConfigError(f"displacement file not found: {disp_path}")
    if users_path is None:
        users_path = os.path.join(os.path.dirname(disp_path), "users.csv")
    tz = resolve_tz(args.tz)
    if not os.path.exists(users_path):
        raise ConfigError(
            f"users file not found: {users_path} (written by 'extract'; pass --users)"
        )

    directions = {"all": (analytics.ANY, analytics.ANY)}
    if focal:
        directions[f"from_{focal}"] = (focal, analytics.ANY)
        directions[f"to_{focal}"] = (analytics.ANY, focal)
    ledger: dict = {}

    # The rows stream from the file into the walk: none is held once counted.
    t0 = time.perf_counter()
    pair_counts, hists, disp_counts = analytics.aggregate(
        read_od_rows(disp_path), tz, list(directions.values()),
        args.include_intra, args.include_external,
    )
    matrix = analytics.od_matrix(pair_counts)
    ledger["read_and_walk"] = _stage(t0, {"rows": sum(disp_counts.values())}, {
        "od_displacements": matrix.total, "binned_crossings": sum(h.total for h in hists),
    })

    t0 = time.perf_counter()
    profiles = _profiles_from(disp_counts, users_path)
    partition = analytics.classify_groups(profiles, cutoff=args.group_cutoff)
    ledger["groups"] = _stage(t0, {"users": len(profiles)}, {
        "high": len(partition.high_group), "low": len(partition.low_group),
    })

    os.makedirs(out_dir, exist_ok=True)
    with _products(out_dir) as part:
        t0 = time.perf_counter()
        with open(part("od_counts.csv"), "w", encoding="utf-8", newline="") as fh:
            analytics.write_od_csv(matrix, fh, kind="counts")
        with open(part("od_proportions.csv"), "w", encoding="utf-8", newline="") as fh:
            analytics.write_od_csv(matrix, fh, kind="proportions")
        for suffix, hist in zip(directions, hists):
            with open(part(f"histogram_{suffix}.csv"), "w", encoding="utf-8", newline="") as fh:
                analytics.write_histogram_csv(hist, fh)
        with open(part("groups.csv"), "w", encoding="utf-8", newline="") as fh:
            analytics.write_groups_csv(partition, profiles, fh)
        ledger["write"] = _stage(t0, {
            "zones": len(matrix.zone_ids), "histograms": len(hists), "users": len(profiles),
        }, {"files": 3 + len(hists)})
        _write_json(part("timings.json"), ledger | _peak_rss())

    print(f"od zones: {len(matrix.zone_ids)}; displacements in OD: {matrix.total}")
    print(f"histogram displacements: {hists[0].total}")
    print(
        f"high-frequency users: {len(partition.high_group)} "
        f"(share of displacements: {partition.share_of_displacements_high:.3f})"
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from . import analytics

    labels_a, values_a = analytics.read_series_csv(args.series_a)
    labels_b, values_b = analytics.read_series_csv(args.series_b)
    for i, (a, b) in enumerate(zip(labels_a, labels_b)):
        if a != b:
            raise ValidationError(
                f"{args.series_a} and {args.series_b} have different bin labels: "
                f"bin {i + 1} is {a!r} in the first and {b!r} in the second"
            )
    if len(labels_a) != len(labels_b) or len(labels_a) < 2:
        raise ValidationError(
            f"{args.series_a} and {args.series_b} have {len(labels_a)} and {len(labels_b)} "
            "bins: a comparison needs the same number of bins, at least 2"
        )
    if args.normalize:
        values_a = analytics.normalize(values_a)
        values_b = analytics.normalize(values_b)
    result = analytics.compare_distributions(values_a, values_b, labels=labels_a)
    _write_json(args.out, {
        "labels": result.labels,
        "l1_distance": result.l1_distance,
        "pearson_r": result.pearson_r,
        "n_bins": len(result.labels),
    })
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    from . import synthgen

    cfg = synthgen.load_config(args.config, seed=args.seed)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    records, trips = synthgen.generate(cfg)
    with _products(out_dir) as part:
        with open(part("corpus.csv"), "w", encoding="utf-8", newline="") as fh:
            write_records_csv(records, fh)
        with open(part("ground_truth.csv"), "w", encoding="utf-8", newline="") as fh:
            synthgen.write_ground_truth_csv(trips, fh)
    print(f"wrote {len(records)} records, {len(trips)} recoverable trips")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geotrips",
        description="Extract displacement and travel-behavior products from geotagged point streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="run the full displacement extraction pipeline")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--input", help="CSV or JSONL input file")
    p.add_argument("--format", choices=FORMATS)
    p.add_argument("--zones", help="GeoJSON zone map")
    p.add_argument("--out", default="out", help="output directory (default ./out)")
    d = FilterConfig()
    p.add_argument("--min-tweets", type=int, default=d.min_tweets)
    p.add_argument("--max-speed-mph", type=float, default=d.max_speed / MPH_TO_MPS)
    p.add_argument("--time-window-h", type=float, default=d.time_window / 3600)
    p.add_argument("--min-displacement-m", type=float, default=d.min_displacement_distance)
    p.add_argument(
        "--tz", default=_default_tz(), help=f"analysis timezone (default ${TZ_ENV_VAR} or UTC)"
    )
    p.add_argument(
        "--legacy-timestamps",
        action="store_true",
        help="also accept 'M/D/YYYY HH:MM' timestamps in the analysis timezone",
    )
    p.add_argument(
        "--workers", type=int, help="accepted and ignored: extraction is one serial pass per user"
    )
    p.set_defaults(func=cmd_extract, parser=p)

    p = sub.add_parser("analyze", help="aggregate a displacement CSV into OD/histogram/group products")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--displacements", help="displacement CSV from 'extract'")
    p.add_argument("--users", help="users.csv from 'extract' (default: beside --displacements)")
    p.add_argument("--out", default="out")
    p.add_argument("--tz", default=_default_tz())
    p.add_argument("--focal-zone")
    p.add_argument("--include-intra", action="store_true")
    p.add_argument("--include-external", action="store_true")
    p.add_argument("--group-cutoff", type=float, default=0.01)
    p.set_defaults(func=cmd_analyze, parser=p)

    p = sub.add_parser("compare", help="compare two normalized reference series")
    p.add_argument("series_a")
    p.add_argument("series_b")
    p.add_argument("--normalize", action="store_true", help="normalize inputs before comparing")
    p.add_argument("--out", help="write the comparison JSON here instead of stdout")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("synth", help="generate a synthetic corpus with ground truth")
    p.add_argument("--config", required=True, help="JSON synth config")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", default="synth_out")
    p.set_defaults(func=cmd_synth)

    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The parsed command line.  An `extract` or `analyze` `--config` file's
    values become that command's defaults and the line is parsed again, so a
    flag beats the file and the file beats the built-in default."""
    parser = build_parser()
    args = parser.parse_args(argv)
    command = getattr(args, "parser", None)
    if command is not None and args.config:
        command.set_defaults(**_config_defaults(args.config, command))
        args = parser.parse_args(argv)
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except (GeotripsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

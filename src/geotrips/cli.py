"""Command-line entry point: extract, analyze, compare, synth."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from collections import Counter
from datetime import datetime, timezone
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

from . import analytics, synthgen
from .displacement import (
    FilterConfig,
    MPH_TO_MPS,
    RunReport,
    read_displacements_csv,
    run_extraction,
    write_displacements_csv,
)
from .errors import ConfigError, GeotripsError
from .records import load_timelines, read_table, write_records_csv, write_rejects_csv
from .zones import load_zones

TZ_ENV_VAR = "GEOTRIPS_TZ"
USERS_COLUMNS = ("user_id", "tweet_count")


def _load_flat_config(path: str) -> dict[str, str]:
    """Flat `key = value` config file; '#' starts a comment."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _merged(args: argparse.Namespace, filecfg: dict[str, str], key: str, default, cast):
    flag_value = getattr(args, key, None)
    if flag_value is not None:
        return flag_value
    if key in filecfg:
        raw = filecfg[key]
        if cast is bool:
            return raw.lower() in ("1", "true", "yes", "on")
        try:
            return cast(raw)
        except ValueError:
            raise ConfigError(
                f"{args.config}: {key} = {raw!r} is not a valid {cast.__name__}"
            ) from None
    return default


def _timezone(name: str) -> ZoneInfo:
    try:
        return ZoneInfo(name)
    except (ZoneInfoNotFoundError, ValueError):
        raise ConfigError(f"unknown timezone {name!r}") from None


def _default_tz() -> str:
    return os.environ.get(TZ_ENV_VAR, "UTC")


def _infer_format(path: str, declared: str | None) -> str:
    if declared:
        return declared
    return "jsonl" if path.endswith((".jsonl", ".ndjson", ".json")) else "csv"


def _print_report_table(report: RunReport) -> None:
    rows = report.to_dict()
    rows["average_displacements_per_traveler"] = report.formatted_average()
    width = max(len(k) for k in rows)
    for key, value in rows.items():
        print(f"{key:<{width}}  {value}")


def cmd_extract(args: argparse.Namespace) -> int:
    filecfg = _load_flat_config(args.config) if args.config else {}
    input_path = _merged(args, filecfg, "input", None, str)
    zones_path = _merged(args, filecfg, "zones", None, str)
    out_dir = _merged(args, filecfg, "out", "out", str)
    fmt = _infer_format(input_path or "", _merged(args, filecfg, "format", None, str))
    tz_name = _merged(args, filecfg, "tz", _default_tz(), str)
    legacy = _merged(args, filecfg, "legacy_timestamps", False, bool)
    # Accepted for compatibility and ignored: extraction is one serial pass.
    _merged(args, filecfg, "workers", 1, int)

    if input_path is None:
        raise ConfigError("no input file given (--input or config 'input')")
    if zones_path is None:
        raise ConfigError("no zones file given (--zones or config 'zones')")
    if not os.path.exists(input_path):
        raise ConfigError(f"input file not found: {input_path}")
    if not os.path.exists(zones_path):
        raise ConfigError(f"zones file not found: {zones_path}")

    cfg = FilterConfig(
        min_tweets=_merged(args, filecfg, "min_tweets", 100, int),
        max_speed=_merged(args, filecfg, "max_speed_mph", 100.0, float) * MPH_TO_MPS,
        time_window=_merged(args, filecfg, "time_window_h", 2.0, float) * 3600.0,
        min_displacement_distance=_merged(args, filecfg, "min_displacement_m", 100.0, float),
    )
    tz = _timezone(tz_name)

    os.makedirs(out_dir, exist_ok=True)
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    ingest = load_timelines(input_path, format=fmt, legacy_tz=tz if legacy else None)
    timelines = ingest.timelines
    timings["ingest"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    zs = load_zones(zones_path)
    timings["zones"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    displacements, report = run_extraction(timelines, zs, cfg)
    timings["extraction"] = time.perf_counter() - t0

    report.lines_read = ingest.lines_read
    report.rejected_lines = len(ingest.rejects)
    report.parsed_records = ingest.parsed_records
    report.duplicates_removed = ingest.duplicates
    report.validate()

    t0 = time.perf_counter()
    with open(os.path.join(out_dir, "displacements.csv"), "w", encoding="utf-8", newline="") as fh:
        write_displacements_csv(displacements, fh)
    with open(os.path.join(out_dir, "rejects.csv"), "w", encoding="utf-8", newline="") as fh:
        write_rejects_csv(ingest.rejects, fh)
    with open(os.path.join(out_dir, "users.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(USERS_COLUMNS)
        for uid in sorted(timelines):
            writer.writerow([uid, len(timelines[uid].records)])
    timings["write"] = time.perf_counter() - t0

    # Timings go to a separate file so report.json stays byte-identical
    # across runs and worker counts.
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "timings.json"), "w", encoding="utf-8") as fh:
        json.dump(timings, fh, indent=2, sort_keys=True)
        fh.write("\n")

    _print_report_table(report)
    return 0


def _profiles_from(displacements, users_path: str) -> list[analytics.UserProfile]:
    disp_counts = Counter(d.user_id for d in displacements)

    def profile(row: list[str]) -> analytics.UserProfile:
        return analytics.UserProfile(row[0], int(row[1]), disp_counts[row[0]])

    return read_table(users_path, USERS_COLUMNS, profile, "users CSV")


def cmd_analyze(args: argparse.Namespace) -> int:
    filecfg = _load_flat_config(args.config) if args.config else {}
    disp_path = _merged(args, filecfg, "displacements", None, str)
    if disp_path is None:
        raise ConfigError("no displacement CSV given")
    if not os.path.exists(disp_path):
        raise ConfigError(f"displacement file not found: {disp_path}")
    users_path = _merged(
        args, filecfg, "users", os.path.join(os.path.dirname(disp_path), "users.csv"), str
    )
    out_dir = _merged(args, filecfg, "out", "out", str)
    tz = _timezone(_merged(args, filecfg, "tz", _default_tz(), str))
    focal = _merged(args, filecfg, "focal_zone", None, str)
    include_intra = _merged(args, filecfg, "include_intra", False, bool)
    include_external = _merged(args, filecfg, "include_external", False, bool)
    cutoff = _merged(args, filecfg, "group_cutoff", 0.01, float)

    displacements = read_displacements_csv(disp_path)
    matrix = analytics.aggregate_od(
        displacements, include_intra=include_intra, include_external=include_external
    )
    if not os.path.exists(users_path):
        raise ConfigError(
            f"users file not found: {users_path} (written by 'extract'; pass --users)"
        )
    profiles = _profiles_from(displacements, users_path)
    partition = analytics.classify_groups(profiles, cutoff=cutoff)

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "od_counts.csv"), "w", encoding="utf-8", newline="") as fh:
        analytics.write_od_csv(matrix, fh, kind="counts")
    with open(os.path.join(out_dir, "od_proportions.csv"), "w", encoding="utf-8", newline="") as fh:
        analytics.write_od_csv(matrix, fh, kind="proportions")

    hist_all = analytics.time_of_day_histogram(
        displacements, tz, include_intra=include_intra
    )
    with open(os.path.join(out_dir, "histogram_all.csv"), "w", encoding="utf-8", newline="") as fh:
        analytics.write_histogram_csv(hist_all, fh)
    if focal:
        for suffix, kwargs in (
            (f"from_{focal}", {"origin": focal}),
            (f"to_{focal}", {"destination": focal}),
        ):
            hist = analytics.time_of_day_histogram(
                displacements, tz, include_intra=include_intra, **kwargs
            )
            path = os.path.join(out_dir, f"histogram_{suffix}.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                analytics.write_histogram_csv(hist, fh)
    with open(os.path.join(out_dir, "groups.csv"), "w", encoding="utf-8", newline="") as fh:
        analytics.write_groups_csv(partition, profiles, fh)

    print(f"od zones: {len(matrix.zone_ids)}; displacements in OD: {matrix.total}")
    print(f"histogram displacements: {hist_all.total}")
    print(
        f"high-frequency users: {len(partition.high_group)} "
        f"(share of displacements: {partition.share_of_displacements_high:.3f})"
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    labels_a, values_a = analytics.read_series_csv(args.series_a)
    labels_b, values_b = analytics.read_series_csv(args.series_b)
    if args.normalize:
        values_a = analytics.normalize(values_a)
        values_b = analytics.normalize(values_b)
    result = analytics.compare_distributions(values_a, values_b, labels=labels_a)
    payload = {
        "labels": result.labels,
        "l1_distance": result.l1_distance,
        "pearson_r": result.pearson_r,
        "n_bins": len(result.labels),
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _synth_value(path: str, key: str, value, default):
    """`value` of the synth config `key` as `SynthConfig` takes it, if it has
    the type of `default` (an int passes for a float).  Values pass unchanged
    except schedules (lists become tuples of floats) and ISO 8601 timestamps
    (UTC where they name no offset)."""
    kind = type(default)
    try:
        if kind is datetime and isinstance(value, str):
            dt = datetime.fromisoformat(value.replace("Z", "+00:00"))
            return dt if dt.tzinfo is not None else dt.replace(tzinfo=timezone.utc)
        if kind is tuple and isinstance(value, list):
            if all(type(x) in (int, float) for x in value):
                return tuple(float(x) for x in value)
        elif type(value) is kind or (kind is float and type(value) is int):
            if key == "tz":
                _timezone(value)
            return value
    except (ValueError, ConfigError):
        pass
    name = "timezone" if key == "tz" else kind.__name__
    raise ConfigError(f"{path}: {key} = {value!r} is not a valid {name}")


def _parse_synth_config(path: str) -> synthgen.SynthConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: synth config is not a JSON object")
    zones_path = doc.get("zones")
    if not zones_path:
        raise ConfigError("synth config needs a 'zones' GeoJSON path")
    zones_path = _synth_value(path, "zones", zones_path, "")
    if not os.path.isabs(zones_path):
        zones_path = os.path.join(os.path.dirname(os.path.abspath(path)), zones_path)
    if not os.path.exists(zones_path):
        raise ConfigError(f"zones file not found: {zones_path}")
    zs = load_zones(zones_path)
    od_raw = _synth_value(path, "od_weights", doc.get("od_weights") or {}, {})
    od_weights = {
        (origin, dest): float(_synth_value(path, f"od_weights.{origin}.{dest}", w, 0.0))
        for origin, dests in od_raw.items()
        for dest, w in _synth_value(path, f"od_weights.{origin}", dests, {}).items()
    }
    kwargs = {
        f.name: _synth_value(path, f.name, doc[f.name], f.default)
        for f in dataclasses.fields(synthgen.SynthConfig)
        if f.name in doc and f.name not in ("zone_map", "od_weights")
    }
    return synthgen.SynthConfig(zone_map=zs, od_weights=od_weights, **kwargs)


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _parse_synth_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    records, trips = synthgen.generate(cfg)
    with open(os.path.join(out_dir, "corpus.csv"), "w", encoding="utf-8", newline="") as fh:
        write_records_csv(records, fh)
    with open(os.path.join(out_dir, "ground_truth.csv"), "w", encoding="utf-8", newline="") as fh:
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
    p.add_argument("--input", dest="input", help="CSV or JSONL input file")
    p.add_argument("--format", choices=["csv", "jsonl"], dest="format")
    p.add_argument("--zones", dest="zones", help="GeoJSON zone map")
    p.add_argument("--out", dest="out", help="output directory (default ./out)")
    p.add_argument("--min-tweets", dest="min_tweets", type=int)
    p.add_argument("--max-speed-mph", dest="max_speed_mph", type=float)
    p.add_argument("--time-window-h", dest="time_window_h", type=float)
    p.add_argument("--min-displacement-m", dest="min_displacement_m", type=float)
    p.add_argument("--tz", dest="tz", help=f"analysis timezone (default ${TZ_ENV_VAR} or UTC)")
    p.add_argument(
        "--legacy-timestamps",
        dest="legacy_timestamps",
        action="store_const",
        const=True,
        help="also accept 'M/D/YYYY HH:MM' timestamps in the analysis timezone",
    )
    p.add_argument(
        "--workers",
        dest="workers",
        type=int,
        help="accepted and ignored: extraction is one serial pass per user",
    )
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("analyze", help="aggregate a displacement CSV into OD/histogram/group products")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--displacements", dest="displacements", help="displacement CSV from 'extract'")
    p.add_argument("--users", dest="users", help="users.csv from 'extract'")
    p.add_argument("--out", dest="out")
    p.add_argument("--tz", dest="tz")
    p.add_argument("--focal-zone", dest="focal_zone")
    p.add_argument("--include-intra", dest="include_intra", action="store_const", const=True)
    p.add_argument("--include-external", dest="include_external", action="store_const", const=True)
    p.add_argument("--group-cutoff", dest="group_cutoff", type=float)
    p.set_defaults(func=cmd_analyze)

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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GeotripsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Traced run: spans and counts around each layer's public calls.

The traced run replays what `geotrips extract` and `geotrips analyze` do,
call by call, in the same order, and records a span around every call into
a layer.  `run_extraction` is one opaque call, so a second pass calls its
stages one by one (activity filter, speed filter, pairing, labeling) to give
each its own span, and a third pass labels every displacement endpoint with
`ZoneSet.label_point` alone.  Spans are recorded only here, in the
benchmark's own files; the program itself is not instrumented.

Each traced run is a fresh process, so the memory growth across
`parse_records` is measured from the same starting point every time:

    PYTHONPATH=src python3 bench/tracing.py <workload> <corpus> <zones> \
        <extract dir> <analyze dir> <result.json> <spans.jsonl>
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """In-memory span recorder.  A span is (name, start, end, parent index)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn inside a leaf span named `name` and return its result."""
        parent = self._stack[-1] if self._stack else None
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        t1 = perf_counter()
        self.spans.append([name, t0, t1, parent])
        return result

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus child durations."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def traced_pipeline(wl, corpus: str, zones_path: str, out_dir: str, an_dir: str) -> Tracer:
    """Run extract and analyze in this process with spans at layer calls.

    Writes the same files as the CLI (minus report.json and timings.json) so
    the caller can compare them byte for byte with an untraced run.
    """
    from zoneinfo import ZoneInfo

    from geotrips import analytics, displacement, records, zones

    tr = Tracer()
    cfg = displacement.FilterConfig()
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(an_dir, exist_ok=True)

    with tr.span("cli.extract"):
        rss0 = _rss_bytes()
        parsed = tr.call("records.parse_records", records.parse_records, corpus, format=wl.fmt)
        tr.count("parse.rss_growth", _rss_bytes() - rss0)
        recs, dups = tr.call("records.dedupe_records", records.dedupe_records, parsed.records)
        timelines = tr.call("records.build_timelines", records.build_timelines, recs)
        zs = tr.call("zones.load_zones", zones.load_zones, zones_path)
        disps, _ = tr.call(
            "displacement.run_extraction", displacement.run_extraction,
            timelines, zs, cfg, workers=wl.workers,
        )
        disp_path = os.path.join(out_dir, "displacements.csv")
        with open(disp_path, "w", encoding="utf-8", newline="") as fh:
            tr.call("displacement.write_displacements_csv",
                    displacement.write_displacements_csv, disps, fh)
        with open(os.path.join(out_dir, "rejects.csv"), "w", encoding="utf-8", newline="") as fh:
            records.write_rejects_csv(parsed.rejects, fh)
        with open(os.path.join(out_dir, "users.csv"), "w", encoding="utf-8", newline="") as fh:
            fh.write("user_id,tweet_count\n")
            for uid in sorted(timelines):
                fh.write(f"{uid},{len(timelines[uid].records)}\n")
    tr.count("parse.lines", parsed.lines_read)
    tr.count("parse.records", len(parsed.records))
    tr.count("parse.rejects", len(parsed.rejects))
    tr.count("dedupe.duplicates", dups)
    tr.count("timelines.users", len(timelines))
    tr.count("zones.vertices", sum(
        len(ring.vertices)
        for z in zs.zones for poly in z.polygons for ring in (poly.outer,) + poly.holes
    ))
    tr.count("write.bytes", os.path.getsize(disp_path))
    del parsed, recs

    # Stage-by-stage replay of run_extraction, serially, in its user order.
    stage_out = []
    with tr.span("displacement.stages"):
        active = tr.call("displacement.filter_active_users",
                         displacement.filter_active_users, timelines, cfg)
        for uid in sorted(active):
            tl = active[uid]
            kept, removed = tr.call("displacement.remove_speed_violations",
                                    displacement.remove_speed_violations, tl, cfg)
            raw = tr.call("displacement.extract_displacements",
                          displacement.extract_displacements, kept, cfg)
            stage_out.extend(
                tr.call("displacement.label_displacement", displacement.label_displacement, d, zs)
                for d in raw
            )
            tr.count("speed.pairs", max(0, len(tl.records) - 1))
            tr.count("speed.removed", len(removed))
            tr.count("pairing.pairs", max(0, len(kept.records) - 1))
            tr.count("pairing.displacements", len(raw))
    tr.count("filter.users_retained", len(active))
    tr.count("stages.mismatch", int(stage_out != disps))
    del stage_out, active, timelines

    with tr.span("zones.label_pass"):
        external = 0
        for d in disps:
            for p in (d.origin, d.destination):
                if tr.call("zones.label_point", zs.label_point, p) == zones.EXTERNAL:
                    external += 1
    tr.count("label.points", 2 * len(disps))
    tr.count("label.external", external)
    del disps

    tz = ZoneInfo(wl.analyze_tz)
    focal = wl.focal_zone
    with tr.span("cli.analyze"):
        rows = tr.call("displacement.read_displacements_csv",
                       displacement.read_displacements_csv, disp_path)
        matrix = tr.call("analytics.aggregate_od", analytics.aggregate_od, rows)
        directions = [("all", {})]
        if focal:
            directions += [(f"from_{focal}", {"origin": focal}), (f"to_{focal}", {"destination": focal})]
        hists = [
            (suffix, tr.call("analytics.time_of_day_histogram",
                             analytics.time_of_day_histogram, rows, tz, **kw))
            for suffix, kw in directions
        ]
        per_user: dict[str, int] = {}
        for d in rows:
            per_user[d.user_id] = per_user.get(d.user_id, 0) + 1
        with open(os.path.join(out_dir, "users.csv"), encoding="utf-8") as fh:
            next(fh)
            profiles = [
                analytics.UserProfile(uid, int(n), per_user.get(uid, 0))
                for uid, n in (line.rstrip("\n").split(",") for line in fh)
            ]
        partition = tr.call("analytics.classify_groups", analytics.classify_groups, profiles,
                            cutoff=0.01)
        with tr.span("analytics.write"):
            for kind in ("counts", "proportions"):
                with open(os.path.join(an_dir, f"od_{kind}.csv"), "w", encoding="utf-8",
                          newline="") as fh:
                    analytics.write_od_csv(matrix, fh, kind=kind)
            for suffix, hist in hists:
                with open(os.path.join(an_dir, f"histogram_{suffix}.csv"), "w",
                          encoding="utf-8", newline="") as fh:
                    analytics.write_histogram_csv(hist, fh)
            with open(os.path.join(an_dir, "groups.csv"), "w", encoding="utf-8", newline="") as fh:
                analytics.write_groups_csv(partition, profiles, fh)
    tr.count("read.rows", len(rows))
    tr.count("histogram.calls", len(hists))
    tr.count("histogram.displacements", sum(h.total for _, h in hists))
    return tr


def layer_metrics(tr: Tracer, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run, named `<module>.<call>.<what>`."""
    st = tr.self_times()
    tot = tr.totals()
    c = tr.counts

    def s(name: str) -> float:
        return st.get(name, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    label_point = tot.get("zones.label_point", 0.0)
    serial = (
        s("displacement.filter_active_users") + s("displacement.remove_speed_violations")
        + s("displacement.extract_displacements") + tot.get("displacement.label_displacement", 0.0)
    )
    run = s("displacement.run_extraction")
    return {
        "records.parse_records.s": s("records.parse_records"),
        "records.parse_records.lines": c["parse.lines"],
        "records.parse_records.rejects": c["parse.rejects"],
        "records.parse_records.records_per_s": ratio(c["parse.lines"], s("records.parse_records")),
        "records.parse_records.bytes_per_record": ratio(c["parse.rss_growth"], c["parse.records"]),
        "records.dedupe_records.s": s("records.dedupe_records"),
        "records.dedupe_records.duplicates": c["dedupe.duplicates"],
        "records.build_timelines.s": s("records.build_timelines"),
        "records.build_timelines.users": c["timelines.users"],
        "zones.load_zones.s": s("zones.load_zones"),
        "zones.load_zones.vertices": c["zones.vertices"],
        "zones.label_point.s": label_point,
        "zones.label_point.points": c["label.points"],
        "zones.label_point.us_per_point": 1e6 * ratio(label_point, c["label.points"]),
        "zones.label_point.external_share": ratio(c["label.external"], c["label.points"]),
        "displacement.filter_active_users.s": s("displacement.filter_active_users"),
        "displacement.filter_active_users.users_retained": c["filter.users_retained"],
        "displacement.remove_speed_violations.s": s("displacement.remove_speed_violations"),
        "displacement.remove_speed_violations.pairs": c["speed.pairs"],
        "displacement.remove_speed_violations.removed": c["speed.removed"],
        "displacement.extract_displacements.s": s("displacement.extract_displacements"),
        "displacement.extract_displacements.pairs": c["pairing.pairs"],
        "displacement.extract_displacements.displacements": c["pairing.displacements"],
        "displacement.extract_displacements.yield": ratio(c["pairing.displacements"],
                                                          c["pairing.pairs"]),
        "displacement.label_displacement.s":
            tot.get("displacement.label_displacement", 0.0) - label_point,
        "displacement.run_extraction.s": run,
        "displacement.run_extraction.workers": workers,
        "displacement.run_extraction.overhead_s": run - serial,
        "displacement.write_displacements_csv.s": s("displacement.write_displacements_csv"),
        "displacement.write_displacements_csv.bytes": c["write.bytes"],
        "displacement.read_displacements_csv.s": s("displacement.read_displacements_csv"),
        "displacement.read_displacements_csv.rows": c["read.rows"],
        "analytics.aggregate_od.s": s("analytics.aggregate_od"),
        "analytics.time_of_day_histogram.s": s("analytics.time_of_day_histogram"),
        "analytics.time_of_day_histogram.calls": c["histogram.calls"],
        "analytics.time_of_day_histogram.displacements": c["histogram.displacements"],
        "analytics.classify_groups.s": s("analytics.classify_groups"),
        "analytics.write.s": s("analytics.write"),
        "cli.extract.s": s("cli.extract"),
        "cli.analyze.s": s("cli.analyze"),
    }


def top_self_time(metrics: dict[str, float]) -> str:
    """Layer with the largest self time.  run_extraction's own work is its
    overhead: the stage spans account for the rest of the call."""
    selfs = {
        k[:-2]: v for k, v in metrics.items()
        if k.endswith(".s") and k != "displacement.run_extraction.s"
    }
    selfs["displacement.run_extraction"] = metrics["displacement.run_extraction.overhead_s"]
    return max(selfs, key=selfs.get)


if __name__ == "__main__":
    from workloads import WORKLOADS

    name, corpus, zones_path, out_dir, an_dir, result_path, spans_path = sys.argv[1:]
    wl = WORKLOADS[name]
    tracer = traced_pipeline(wl, corpus, zones_path, out_dir, an_dir)
    tracer.dump(spans_path)
    totals = tracer.totals()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({
            "metrics": layer_metrics(tracer, wl.workers),
            "total_s": totals["cli.extract"] + totals["cli.analyze"],
            "stage_mismatch": tracer.counts["stages.mismatch"],
        }, fh)

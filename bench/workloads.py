"""Deterministic workload builder for the geotrips benchmark.

Each workload is a zone map plus a synthetic corpus made by
``geotrips.synthgen`` from the seed.  The program under test only ever sees
the generated files.  Builds are cached under
``.bench_work/cache/<workload>-s<seed>-<size>-<hash>`` where the hash covers
this file and the package modules the generator runs, so a changed
generator never reuses a stale corpus.

Run as a script to build one workload (the benchmark does this in a child
process so the generator's memory never stays in the timing process):

    PYTHONPATH=src python3 bench/workloads.py <workload> <seed> <out_dir> [--smoke]
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

#: Seed whose output digests are recorded in bench/digests.json.
DEFAULT_SEED = 99

# Package modules whose code decides the generated files.
_GENERATOR_MODULES = ("synthgen.py", "records.py", "zones.py", "geometry.py", "errors.py")
_CACHE_KEEP = 8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fmt: str  # corpus format handed to `geotrips extract`
    workers: int  # `extract --workers`
    analyze_tz: str
    focal_zone: str | None
    synth: dict  # SynthConfig fields besides seed, zone_map and od_weights
    smoke_agents: int  # n_agents in the benchmark's own tiny-size tests
    # Share of JSONL lines repeated verbatim / replaced by a malformed line.
    duplicate_rate: float = 0.0
    malformed_rate: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense-4sq",
            why=(
                "record-heavy corpus on four squares: parse, dedupe/timelines, "
                "the speed filter and pairing do almost all the work"
            ),
            fmt="csv",
            workers=1,
            analyze_tz="UTC",
            focal_zone=None,
            synth=dict(
                n_agents=90, tweet_floor=1100, tweet_scale=10, tweet_alpha=1.5,
                trip_fraction=0.08,
            ),
            smoke_agents=6,
        ),
        Workload(
            name="county-poly",
            why=(
                "six 2,000-vertex star zones and a small corpus: point-in-polygon "
                "labeling dominates extract and zone loading shows in set-up"
            ),
            fmt="csv",
            workers=1,
            analyze_tz="UTC",
            focal_zone=None,
            synth=dict(
                n_agents=4, tweet_floor=1250, tweet_scale=10, tweet_alpha=1.5,
                trip_fraction=0.15,
            ),
            smoke_agents=1,
        ),
        Workload(
            name="travel-16z",
            why=(
                "most displacements per record, JSONL input, a 2-worker pool and "
                "three zoned histograms: construction, labeling, write and pickling"
            ),
            fmt="jsonl",
            workers=2,
            analyze_tz="America/New_York",
            focal_zone="z11",
            synth=dict(
                n_agents=60, tweet_floor=1000, tweet_scale=10, tweet_alpha=1.5,
                trip_fraction=0.45, anomaly_rate=0.002,
            ),
            smoke_agents=4,
            duplicate_rate=0.005,
            malformed_rate=0.002,
        ),
    )
}


# ---------------------------------------------------------------------------
# Zone maps (GeoJSON dicts, coordinates [lon, lat])


def _feature(zone_id: str, ring_latlon: list[tuple[float, float]]) -> dict:
    coords = [[lon, lat] for lat, lon in ring_latlon]
    coords.append(coords[0])
    return {
        "type": "Feature",
        "properties": {"zone_id": zone_id, "name": zone_id.upper()},
        "geometry": {"type": "Polygon", "coordinates": [coords]},
    }


def _square(lat0: float, lon0: float, size: float) -> list[tuple[float, float]]:
    return [(lat0, lon0), (lat0, lon0 + size), (lat0 + size, lon0 + size), (lat0 + size, lon0)]


def star_polygon(
    rng: random.Random, n_vertices: int, center: tuple[float, float], scale: float
) -> list[tuple[float, float]]:
    """Star-shaped (hence simple) ring: sorted random angles, random radii.

    Same construction as the test oracle's `random_simple_polygon`, in pure
    stdlib so the benchmark needs no numpy.
    """
    angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(n_vertices))
    ring = []
    for a in angles:
        r = rng.uniform(0.2 * scale, scale)
        ring.append((center[0] + r * math.sin(a), center[1] + r * math.cos(a)))
    return ring


def zone_map(name: str, seed: int) -> dict:
    if name == "dense-4sq":
        features = [
            _feature("alpha", _square(40.0, -74.0, 0.2)),
            _feature("beta", _square(40.0, -73.7, 0.2)),
            _feature("gamma", _square(40.3, -74.0, 0.2)),
            _feature("delta", _square(40.3, -73.7, 0.2)),
        ]
    elif name == "county-poly":
        rng = random.Random(seed * 7_777 + 1)
        features = [
            _feature(
                f"c{i}",
                star_polygon(rng, 2000, (40.0 + 0.15 * (i // 3), -74.0 + 0.15 * (i % 3)), 0.05),
            )
            for i in range(6)
        ]
    elif name == "travel-16z":
        features = [
            _feature(f"z{i}{j}", _square(40.0 + 0.3 * i, -74.0 + 0.3 * j, 0.2))
            for i in range(4)
            for j in range(4)
        ]
    else:
        raise KeyError(name)
    return {"type": "FeatureCollection", "features": features}


def od_weights(name: str, zone_ids: list[str]) -> dict[tuple[str, str], float]:
    if name == "dense-4sq":
        # Criterion 9's OD config.
        return {("alpha", "beta"): 0.4, ("beta", "alpha"): 0.2,
                ("gamma", "delta"): 0.25, ("delta", "gamma"): 0.15}
    pairs = [(o, d) for o in zone_ids for d in zone_ids if o != d]
    return {p: 1.0 / len(pairs) for p in pairs}


# ---------------------------------------------------------------------------
# Building and caching


def generator_hash() -> str:
    h = hashlib.sha256()
    with open(os.path.abspath(__file__), "rb") as fh:
        h.update(fh.read())
    for mod in _GENERATOR_MODULES:
        with open(os.path.join(SRC, "geotrips", mod), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _write_jsonl(csv_path: str, jsonl_path: str, wl: Workload, seed: int) -> tuple[int, int]:
    """Convert the synth CSV to JSONL, planting exact duplicate lines and
    malformed lines at the workload's rates.  Returns (duplicates, malformed)."""
    rng = random.Random(seed * 104_729 + 7)
    dups = bad = 0
    with open(csv_path, encoding="utf-8", newline="") as src, open(
        jsonl_path, "w", encoding="utf-8"
    ) as out:
        reader = csv.reader(src)
        next(reader)
        for uid, lat, lon, ts, text in reader:
            line = json.dumps(
                {"user_id": uid, "lat": float(lat), "lon": float(lon), "timestamp": ts, "text": text}
            )
            out.write(line + "\n")
            u = rng.random()
            if u < wl.duplicate_rate:
                out.write(line + "\n")
                dups += 1
            elif u < wl.duplicate_rate + wl.malformed_rate:
                bad += 1
                kind = bad % 3
                if kind == 0:
                    out.write(line[: len(line) // 2] + "\n")  # truncated JSON
                elif kind == 1:
                    out.write(line.replace(f'"lat": {float(lat)!r}', '"lat": "north"') + "\n")
                else:
                    out.write(line.replace(ts, ts.rstrip("Z")) + "\n")  # no UTC offset
    return dups, bad


def generate(name: str, seed: int, out_dir: str, smoke: bool = False) -> dict:
    """Write zones.geojson, the corpus and ground_truth.csv; return the metadata."""
    from geotrips import synthgen
    from geotrips.records import write_records_csv
    from geotrips.zones import load_zones

    wl = WORKLOADS[name]
    os.makedirs(out_dir, exist_ok=True)
    zones_doc = zone_map(name, seed)
    zones_path = os.path.join(out_dir, "zones.geojson")
    with open(zones_path, "w", encoding="utf-8") as fh:
        json.dump(zones_doc, fh)
    zs = load_zones(zones_path)
    synth = dict(wl.synth)
    if smoke:
        synth["n_agents"] = wl.smoke_agents
    cfg = synthgen.SynthConfig(
        seed=seed, zone_map=zs, od_weights=od_weights(name, zs.zone_ids), **synth
    )
    records, trips = synthgen.generate(cfg)
    csv_path = os.path.join(out_dir, "corpus.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        write_records_csv(records, fh)
    with open(os.path.join(out_dir, "ground_truth.csv"), "w", encoding="utf-8", newline="") as fh:
        synthgen.write_ground_truth_csv(trips, fh)
    dups = bad = 0
    corpus = "corpus.csv"
    if wl.fmt == "jsonl":
        corpus = "corpus.jsonl"
        dups, bad = _write_jsonl(csv_path, os.path.join(out_dir, corpus), wl, seed)
        os.remove(csv_path)
    meta = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "corpus": corpus,
        "records": len(records),
        "lines": len(records) + dups + bad,
        "duplicates": dups,
        "malformed": bad,
        "trips": len(trips),
        "vertices": sum(len(f["geometry"]["coordinates"][0]) - 1 for f in zones_doc["features"]),
        "synth": {"seed": seed, **synth},
    }
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    return meta


def build(name: str, seed: int, smoke: bool = False) -> tuple[str, dict]:
    """Return (directory, metadata) of the workload's inputs, building them
    in a child process unless a cached build exists."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    cache = os.path.join(WORK, "cache")
    key = f"{name}-s{seed}-{'smoke' if smoke else 'full'}-{generator_hash()}"
    final = os.path.join(cache, key)
    meta_path = os.path.join(final, "meta.json")
    if not os.path.exists(meta_path):
        os.makedirs(cache, exist_ok=True)
        tmp = f"{final}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        cmd = [sys.executable, os.path.abspath(__file__), name, str(seed), tmp]
        if smoke:
            cmd.append("--smoke")
        env = dict(os.environ, PYTHONPATH=SRC)
        try:
            subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
            os.rename(tmp, final)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        _prune(cache)
    os.utime(meta_path)
    with open(meta_path, encoding="utf-8") as fh:
        return final, json.load(fh)


def _prune(cache: str) -> None:
    """Keep only the most recently used builds."""
    entries = [
        os.path.join(cache, d)
        for d in os.listdir(cache)
        if os.path.exists(os.path.join(cache, d, "meta.json"))
    ]
    entries.sort(key=lambda d: os.path.getmtime(os.path.join(d, "meta.json")), reverse=True)
    for d in entries[_CACHE_KEEP:]:
        shutil.rmtree(d, ignore_errors=True)


if __name__ == "__main__":
    argv = sys.argv[1:]
    smoke = "--smoke" in argv
    argv = [a for a in argv if a != "--smoke"]
    if len(argv) != 3:
        raise SystemExit(__doc__)
    generate(argv[0], int(argv[1]), argv[2], smoke=smoke)

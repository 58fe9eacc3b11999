"""Output checks for one benchmark run.

The checks read the program's output files with the csv/json modules only,
never with geotrips' own readers, so a defect in a reader cannot hide a
defect in a writer.  Every check returns a list of problems; an empty list
means the outputs are correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from bisect import bisect_right
from collections import Counter

EXTERNAL = "EXTERNAL"
EXTRACT_FILES = ("displacements.csv", "rejects.csv", "users.csv", "report.json")
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def analyze_files(focal_zone: str | None) -> tuple[str, ...]:
    hists = ("histogram_all.csv",)
    if focal_zone:
        hists += (f"histogram_from_{focal_zone}.csv", f"histogram_to_{focal_zone}.csv")
    return ("od_counts.csv", "od_proportions.csv") + hists + ("groups.csv",)


def file_digests(directory: str, names: tuple[str, ...]) -> dict[str, str]:
    """sha256 of each named file; a missing file maps to "missing"."""
    out = {}
    for name in names:
        path = os.path.join(directory, name)
        try:
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        except FileNotFoundError:
            out[name] = "missing"
    return out


def recorded_digests(workload: str) -> dict[str, str] | None:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def compare_digests(actual: dict[str, str], expected: dict[str, str], what: str) -> list[str]:
    return [
        f"{name}: sha256 differs from {what}"
        for name in sorted(expected)
        if actual.get(name) != expected[name]
    ]


def _rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        return header, [row for row in reader if row]


def _recovery(ground_truth: str, disp_rows: list[list[str]]) -> list[str]:
    """Every planted trip must match its own inter-zone displacement: same
    user and zones, with the true crossing instant inside [start, end]."""
    spans: dict[tuple[str, str, str], list[tuple[str, str]]] = {}
    for r in disp_rows:
        if r[9] != r[10]:
            spans.setdefault((r[0], r[9], r[10]), []).append((r[5], r[6]))
    for v in spans.values():
        v.sort()
    _, trips = _rows(ground_truth)
    used: set[tuple[str, str, str, int]] = set()
    missing = 0
    for user, origin, dest, crossing in trips:
        key = (user, origin, dest)
        cands = spans.get(key, [])
        # Timestamps share one ISO-8601 UTC layout, so strings order as times.
        i = bisect_right(cands, (crossing, "\uffff")) - 1
        if i >= 0 and cands[i][1] >= crossing and key + (i,) not in used:
            used.add(key + (i,))
        else:
            missing += 1
    if missing:
        return [f"{missing} of {len(trips)} planted trips not recovered"]
    return []


def check_outputs(
    inputs_dir: str,
    meta: dict,
    focal_zone: str | None,
    extract_dir: str,
    analyze_dir: str,
) -> list[str]:
    """Planted-trip recovery plus the balance of every count the outputs state."""
    names = [os.path.join(extract_dir, n) for n in EXTRACT_FILES] + [
        os.path.join(analyze_dir, n) for n in analyze_files(focal_zone)
    ]
    absent = [n for n in names if not os.path.isfile(n)]
    if absent:
        return [f"missing output {n}" for n in absent]
    problems: list[str] = []

    def expect(label: str, got, want) -> None:
        if got != want:
            problems.append(f"{label}: got {got!r}, expected {want!r}")

    with open(os.path.join(extract_dir, "report.json"), encoding="utf-8") as fh:
        rep = json.load(fh)
    _, disp = _rows(os.path.join(extract_dir, "displacements.csv"))
    _, rejects = _rows(os.path.join(extract_dir, "rejects.csv"))
    _, users = _rows(os.path.join(extract_dir, "users.csv"))

    # Record conservation from the input the harness wrote.
    expect("lines_read", rep["lines_read"], meta["lines"])
    expect("rejected_lines", rep["rejected_lines"], meta["malformed"])
    expect("duplicates_removed", rep["duplicates_removed"], meta["duplicates"])
    expect("parsed + rejected", rep["parsed_records"] + rep["rejected_lines"], rep["lines_read"])
    expect("rejects.csv rows", len(rejects), rep["rejected_lines"])
    tweet_counts = [int(r[1]) for r in users]
    expect("users.csv tweets", sum(tweet_counts), rep["parsed_records"] - rep["duplicates_removed"])
    expect("users.csv rows", len(users), rep["users_total"])
    expect("users retained + dropped", rep["users_retained"] + rep["users_dropped"], rep["users_total"])
    expect(
        "records_in_retained_timelines",
        rep["records_in_retained_timelines"],
        sum(c for c in tweet_counts if c >= 100),
    )

    inter = [r for r in disp if r[9] != r[10]]
    expect("displacements.csv rows", len(disp), rep["displacements_total"])
    expect("inter + intra", rep["displacements_inter_zone"] + rep["displacements_intra_zone"],
           rep["displacements_total"])
    expect("displacements_inter_zone", len(inter), rep["displacements_inter_zone"])
    expect("displacements_external_touching",
           sum(1 for r in disp if EXTERNAL in (r[9], r[10])), rep["displacements_external_touching"])
    expect("travelers", len({r[0] for r in disp}), rep["travelers"])
    avg = rep["displacements_total"] / rep["travelers"] if rep["travelers"] else 0.0
    expect("average_displacements_per_traveler", rep["average_displacements_per_traveler"], avg)

    problems += _recovery(os.path.join(inputs_dir, "ground_truth.csv"), disp)

    # Analyze products against the displacements they came from.
    _, od = _rows(os.path.join(analyze_dir, "od_counts.csv"))
    expect("od_counts total", sum(int(c) for r in od for c in r[1:]),
           sum(1 for r in inter if EXTERNAL not in (r[9], r[10])))
    _, props = _rows(os.path.join(analyze_dir, "od_proportions.csv"))
    total_prop = math.fsum(float(c) for r in props for c in r[1:])
    if abs(total_prop - 1.0) > 1e-9:
        problems.append(f"od_proportions sum to {total_prop!r}")
    hist_want = {"histogram_all.csv": len(inter)}
    if focal_zone:
        hist_want[f"histogram_from_{focal_zone}.csv"] = sum(1 for r in inter if r[9] == focal_zone)
        hist_want[f"histogram_to_{focal_zone}.csv"] = sum(1 for r in inter if r[10] == focal_zone)
    for name, want in hist_want.items():
        _, hist = _rows(os.path.join(analyze_dir, name))
        expect(f"{name} total", sum(int(r[1]) + int(r[2]) for r in hist), want)
    _, groups = _rows(os.path.join(analyze_dir, "groups.csv"))
    expect("groups.csv rows", len(groups), rep["users_total"])
    expect("groups.csv displacements", sum(int(r[2]) for r in groups), rep["displacements_total"])
    per_user = Counter(r[0] for r in disp)
    expect("groups.csv per-user displacements",
           {r[0]: int(r[2]) for r in groups if int(r[2])}, dict(per_user))
    expect("HIGH_FREQUENCY users", sum(1 for r in groups if r[3] == "HIGH_FREQUENCY"),
           max(1, math.ceil(0.01 * len(groups))))
    return problems

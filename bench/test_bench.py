"""Self-tests of the benchmark on tiny inputs (`--smoke`).

    python3 -m pytest bench -q
"""

from __future__ import annotations

import csv
import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

import check
import run
import workloads

ROOT = workloads.ROOT


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_printed(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace,
                  "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    wanted = _spec()["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert m["name"] in proc.stdout.split("\n", 1)[1]  # the readable summary names it too
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _drop_last_row(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])


def _swap_inter_zone_label(path: str) -> None:
    """Relabel one inter-zone displacement so its destination is its origin."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    row = next(r for r in rows[1:] if r[9] != r[10])
    row[10] = row[9]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _shift_group_count(path: str) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][2] = str(int(rows[1][2]) + 1)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.fixture
def smoke_runner(tmp_path):
    inputs_dir, meta = workloads.build("dense-4sq", 4, smoke=True)
    runner = run.Runner(workloads.WORKLOADS["dense-4sq"], inputs_dir, meta, str(tmp_path), None)
    sample = runner.iteration()
    assert sample["problems"] == []
    return runner


@pytest.mark.parametrize(
    "target, corrupt",
    [
        ("extract/displacements.csv", _drop_last_row),
        ("extract/displacements.csv", _swap_inter_zone_label),
        ("analyze/groups.csv", _shift_group_count),
        ("analyze/histogram_all.csv", _drop_last_row),
    ],
)
def test_check_catches_a_corrupted_copy(smoke_runner, tmp_path, target, corrupt):
    copy = tmp_path / "copy"
    shutil.copytree(smoke_runner.out, copy / "extract")
    shutil.copytree(smoke_runner.an, copy / "analyze")
    corrupt(str(copy / target))
    problems = check.check_outputs(
        smoke_runner.inputs_dir, smoke_runner.meta, None, str(copy / "extract"),
        str(copy / "analyze"),
    )
    assert problems


def test_corrupted_outputs_count_in_error_rate(monkeypatch):
    real_spawn = run.Runner.spawn

    def spawn_then_corrupt(self, args):
        result = real_spawn(self, args)
        if "extract" in args:
            _swap_inter_zone_label(os.path.join(self.out, "displacements.csv"))
        return result

    monkeypatch.setattr(run.Runner, "spawn", spawn_then_corrupt)
    result = run.run("dense-4sq", 4, 0, trace=False, smoke=True)
    assert result["attempted"] >= run.MIN_ITERATIONS  # the set is not aborted
    assert result["failed"] == result["attempted"]
    assert any("planted trips not recovered" in p for p in result["problems"])
    assert run.report(result, trace=False)["correct"] is False


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_builds_identical_inputs(workload, tmp_path):
    env = dict(os.environ, PYTHONPATH=workloads.SRC)
    for side in ("a", "b"):
        subprocess.run(
            [sys.executable, os.path.join(workloads.BENCH_DIR, "workloads.py"), workload, "7",
             str(tmp_path / side), "--smoke"],
            env=env, check=True, timeout=120,
        )
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
    assert mismatch == [] and errors == [] and len(match) == len(names) == 4


def test_default_seed_digests_cover_every_output():
    for name, wl in workloads.WORKLOADS.items():
        recorded = check.recorded_digests(name)
        assert recorded is not None, name
        assert set(recorded) == set(check.EXTRACT_FILES) | set(check.analyze_files(wl.focal_zone))


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(workloads.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "dense-4sq", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""geotrips benchmark: one workload, one closed-loop client.

    python3 bench/run.py --workload dense-4sq --seed 99 --seconds 20 --trace 0

Run from the root of a source checkout.  The inputs are built from the seed
(see workloads.py; building is never timed).  Then `geotrips extract` and
`geotrips analyze` run one after the other, each in a fresh child process,
for `--seconds` seconds, and every run's outputs are checked (see check.py).

`--trace 0` reports the end-to-end metrics named in BENCHMARK.json, as
means over the runs.  `--trace 1` alternates an untraced run with a traced
replay of the same pipeline in a fresh process (tracing.py) and reports the
per-layer metrics, means over the traced replays.

Means, not medians.  On a 2-vCPU Xeon VM shared with other tenants, CPU
speed flips between a fast and a slow state (about 1.5x apart) for seconds at
a time.  A run's samples are then bimodal, and their median jumps between
the two modes from run to run; the mean moves only with the share of time
spent slow.  Over ten seeds on dense-4sq there, the quartile spread of the
per-run median was 0.22 (extract_s) and 0.24 (analyze_s); of the mean, 0.11
and 0.17.

The last line of standard output is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import check
import tracing
import workloads
from workloads import DEFAULT_SEED, ROOT, SRC, WORK, WORKLOADS

# Per iteration.  Set-up and analyze are short, so each iteration takes
# several of them; spreading them over the whole run, rather than taking them
# in one burst, keeps a slow spell of the machine from deciding their mean.
SETUP_SPAWNS = 2  # fresh `import geotrips; load_zones()` processes
ANALYZE_REPEATS = 3  # analyze runs on the iteration's extract output
MIN_ITERATIONS = 3  # per run, even when --seconds has passed
CHILD_TIMEOUT_S = 150
SPAWN_PY = os.path.join(workloads.BENCH_DIR, "spawn.py")
TRACING_PY = os.path.join(workloads.BENCH_DIR, "tracing.py")


def _child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("GEOTRIPS_TZ", None)
    return env


class Runner:
    """Spawns the program on one workload's inputs and checks what it writes."""

    def __init__(self, wl, inputs_dir: str, meta: dict, run_dir: str, expected: dict | None):
        self.wl = wl
        self.inputs_dir = inputs_dir
        self.meta = meta
        self.run_dir = run_dir
        self.corpus = os.path.join(inputs_dir, meta["corpus"])
        self.zones = os.path.join(inputs_dir, "zones.geojson")
        self.out = os.path.join(run_dir, "extract")
        self.an = os.path.join(run_dir, "analyze")
        self.analyze_files = check.analyze_files(wl.focal_zone)
        self.expected = expected  # recorded digests on the default seed
        self.reference: dict[str, str] | None = None  # --workers 1 extract digests
        self._verdicts: dict[tuple, list[str]] = {}
        self._env = _child_env()

    def spawn(self, args: list[str]) -> tuple[float, int, float]:
        """Run `python3 <args>` through spawn.py; return (wall seconds, exit
        code, peak RSS in MiB of the child and every descendant it reaped)."""
        launcher = [sys.executable, SPAWN_PY, os.path.join(self.run_dir, "children.log"),
                    str(CHILD_TIMEOUT_S), sys.executable, *args]
        proc = subprocess.run(launcher, env=self._env, cwd=self.run_dir, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S + 30, check=True)
        res = json.loads(proc.stdout)
        return res["seconds"], res["exit"], res["maxrss_kib"] / 1024.0

    def setup(self) -> tuple[float, int]:
        """(wall seconds, exit code) of a fresh `import geotrips; load_zones(map)`."""
        args = ["-c", "import sys, geotrips; geotrips.load_zones(sys.argv[1])", self.zones]
        elapsed, code, _ = self.spawn(args)
        return elapsed, code

    def extract_args(self, out: str, workers: int) -> list[str]:
        return ["-m", "geotrips.cli", "extract", "--input", self.corpus, "--zones", self.zones,
                "--out", out, "--workers", str(workers), "--tz", "UTC"]

    def analyze_args(self) -> list[str]:
        args = ["-m", "geotrips.cli", "analyze", "--displacements",
                os.path.join(self.out, "displacements.csv"), "--out", self.an,
                "--tz", self.wl.analyze_tz]
        if self.wl.focal_zone:
            args += ["--focal-zone", self.wl.focal_zone]
        return args

    def make_reference(self) -> None:
        """Extract once with --workers 1: the parallel outputs must match it."""
        ref = os.path.join(self.run_dir, "reference")
        _, code, _ = self.spawn(self.extract_args(ref, 1))
        self.reference = (
            check.file_digests(ref, check.EXTRACT_FILES) if code == 0 else {"exit": str(code)}
        )

    def iteration(self) -> dict:
        """SETUP_SPAWNS set-ups, one extract and ANALYZE_REPEATS analyze runs,
        timed and checked."""
        setup = [self.setup() for _ in range(SETUP_SPAWNS)]
        shutil.rmtree(self.out, ignore_errors=True)
        extract_s, code, rss = self.spawn(self.extract_args(self.out, self.wl.workers))
        sample = {"setup_s": [t for t, _ in setup], "extract_s": extract_s,
                  "extract_peak_rss_mb": rss,
                  "analyze_s": [], "analyze_peak_rss_mb": [], "problems": []}
        sample["problems"] += [f"set-up exited {c}" for _, c in setup if c != 0]
        if code != 0:
            sample["problems"].append(f"extract exited {code}")
            return sample
        analyzed = None
        for _ in range(ANALYZE_REPEATS):
            shutil.rmtree(self.an, ignore_errors=True)
            analyze_s, code, rss = self.spawn(self.analyze_args())
            sample["analyze_s"].append(analyze_s)
            sample["analyze_peak_rss_mb"].append(rss)
            if code != 0:
                sample["problems"].append(f"analyze exited {code}")
                return sample
            digests = check.file_digests(self.an, self.analyze_files)
            if analyzed is not None and digests != analyzed:
                sample["problems"].append("analyze outputs differ between repeats")
            analyzed = digests
        sample["digests"] = check.file_digests(self.out, check.EXTRACT_FILES) | analyzed
        sample["problems"] += self.verdict(sample["digests"])
        return sample

    def verdict(self, digests: dict[str, str]) -> list[str]:
        """Problems with the outputs now in out/ and an/, whose digests are
        given.  Identical bytes get the same verdict, so the full check runs
        once per distinct set of outputs."""
        key = tuple(sorted(digests.items()))
        if key not in self._verdicts:
            problems = check.check_outputs(
                self.inputs_dir, self.meta, self.wl.focal_zone, self.out, self.an
            )
            if self.reference is not None:
                extract_part = {n: digests[n] for n in check.EXTRACT_FILES}
                if extract_part != self.reference:
                    problems.append(f"--workers {self.wl.workers} extract differs from --workers 1")
            if self.expected is not None:
                problems += check.compare_digests(digests, self.expected, "bench/digests.json")
            self._verdicts[key] = problems
        return list(self._verdicts[key])


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _end_to_end(samples: list[dict]) -> dict[str, list[float]]:
    return {
        "setup_s": [t for s in samples for t in s["setup_s"]],
        "extract_s": [s["extract_s"] for s in samples],
        "analyze_s": [a for s in samples for a in s["analyze_s"]],
        "extract_peak_rss_mb": [s["extract_peak_rss_mb"] for s in samples],
        "analyze_peak_rss_mb": [a for s in samples for a in s["analyze_peak_rss_mb"]],
    }


def _traced(runner: Runner, untraced: dict, spans_path: str) -> tuple[dict | None, list[str]]:
    """One traced replay in a fresh process; its outputs must equal the
    untraced run's bytes."""
    t_out = os.path.join(runner.run_dir, "traced-extract")
    t_an = os.path.join(runner.run_dir, "traced-analyze")
    shutil.rmtree(t_out, ignore_errors=True)
    shutil.rmtree(t_an, ignore_errors=True)
    result_path = os.path.join(runner.run_dir, "traced.json")
    with open(os.path.join(runner.run_dir, "children.log"), "ab") as log:
        proc = subprocess.run(
            [sys.executable, TRACING_PY, runner.wl.name, runner.corpus, runner.zones, t_out, t_an,
             result_path, spans_path],
            env=_child_env(), cwd=runner.run_dir, stdout=log, stderr=log, timeout=CHILD_TIMEOUT_S,
        )
    if proc.returncode != 0:
        return None, [f"traced replay exited {proc.returncode}"]
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    problems = []
    if result["stage_mismatch"]:
        problems.append("stage-by-stage replay differs from run_extraction")
    if "digests" in untraced:
        got = check.file_digests(t_out, ("displacements.csv", "rejects.csv", "users.csv"))
        got |= check.file_digests(t_an, runner.analyze_files)
        want = {name: untraced["digests"][name] for name in got}
        problems += check.compare_digests(got, want, "the untraced run")
    return result["metrics"] | {"trace.total_s": result["total_s"]}, problems


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False, record_digests: bool = False) -> dict:
    """Build, measure and check one workload; return the result object."""
    wl = WORKLOADS[workload]
    if record_digests and (seed != DEFAULT_SEED or smoke):
        raise ValueError(f"digests are recorded for the full-size seed {DEFAULT_SEED} only")
    inputs_dir, meta = workloads.build(workload, seed, smoke=smoke)
    expected = None
    if seed == DEFAULT_SEED and not smoke and not record_digests:
        expected = check.recorded_digests(workload)
        if expected is None:
            raise RuntimeError(f"bench/digests.json has no digests for {workload}")
    spans_path = os.path.join(WORK, f"trace-{workload}-s{seed}.jsonl")
    runs = os.path.join(WORK, "runs")
    os.makedirs(runs, exist_ok=True)
    run_dir = os.path.join(runs, f"{workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        runner = Runner(wl, inputs_dir, meta, run_dir, expected)
        runner.setup()  # warm the page cache and bytecode cache
        if wl.workers > 1:
            runner.make_reference()
        samples, traced, problems = [], [], []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            sample = runner.iteration()
            samples.append(sample)
            problems.append(sample["problems"])
            if trace:
                metrics, trace_problems = _traced(runner, sample, spans_path)
                if metrics is not None:
                    traced.append(metrics)
                problems.append(trace_problems)
            # Stop before an iteration that would end past --seconds.
            now = time.perf_counter()
            if len(samples) >= MIN_ITERATIONS and (now - start) + (now - began) > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    series = _end_to_end(samples)
    with open(os.path.join(WORK, f"samples-{workload}-s{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump(series, fh)
    means = {name: _mean(values) for name, values in series.items()}
    means["records_per_s"] = meta["lines"] / means["extract_s"] if means["extract_s"] else 0.0
    if trace:
        if not traced:
            raise RuntimeError(f"every traced replay failed: {sorted({x for p in problems for x in p})}")
        values = {name: _mean([m[name] for m in traced]) for name in traced[0]}
        values["trace.overhead_s"] = values.pop("trace.total_s") - (
            means["extract_s"] + means["analyze_s"]
        )
    else:
        values = means
    if record_digests:
        if any(problems):
            print("digests not recorded: the run had problems", file=sys.stderr)
        else:
            _record(workload, samples[0]["digests"])
    failed = sum(1 for p in problems if p)
    return {
        "workload": workload, "seed": seed, "meta": meta, "series": series,
        "values": values, "problems": sorted({x for p in problems for x in p}),
        "attempted": len(problems), "failed": failed,
        "top_self_time": tracing.top_self_time(values) if trace else None,
    }


def _record(workload: str, digests: dict[str, str]) -> None:
    with open(check.DIGESTS_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc[workload] = digests
    with open(check.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def report(result: dict, trace: bool) -> dict:
    """Print a readable summary and return the JSON result line's object."""
    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["values"]
    meta = result["meta"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"{meta['lines']} input lines  {meta['trips']} planted trips")
    for m in wanted:
        line = f"  {m['name']:<52} {values[m['name']]:>14.6g} {m['unit']}"
        series = result["series"].get(m["name"])
        if series and not trace:
            line += (f"   (mean of {len(series)}; median {statistics.median(series):.6g}, "
                     f"min {min(series):.6g}, max {max(series):.6g})")
        print(line)
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<52} {rate:>14.6g} ratio   "
          f"({result['failed']} of {result['attempted']} runs failed)")
    if trace:
        print(f"  largest self-time layer: {result['top_self_time']}")
    for p in result["problems"]:
        print(f"  problem: {p}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs for the self-tests")
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store the outputs' sha256 for seed {DEFAULT_SEED} in digests.json")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "geotrips", "cli.py")):
        print(f"error: no geotrips source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 smoke=args.smoke, record_digests=args.record_digests)
    line = report(result, bool(args.trace))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

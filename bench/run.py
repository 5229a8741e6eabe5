#!/usr/bin/env python3
"""Benchmark of the sumrank CLI: fixed job grids, timed end to end, traced per layer.

    python3 bench/run.py --workload certify-paper|certify-enum|construct-paper|all
                         [--seed N] [--seconds S] [--trace 0|1]

Each job is a fresh `python -m sumrank.cli ... --out FILE` process, run from
the source tree next to this directory.  Load model: a closed loop with one
client; run.py launches one job process at a time and waits for it.  The
seed only permutes job order.  Every job's exit code and output file are
checked against `reference.json` (see gate.py); a job that fails is counted,
never dropped or rerun.

--trace 0 times whole passes over the grid until --seconds have elapsed (a
pass is never cut short, so a run measures at least one pass) and reports
each end-to-end metric as the median over passes; `setup_s` is the median
of many fresh-process `import sumrank.cli` launches spread over the run.

--trace 1 gives the per-layer metrics and the tracing overhead.  It runs on
two lanes, one per core: every job runs untraced in one lane while its twin
runs under launch.py's span wrappers in the other; then a counting pass (times
discarded) counts field operations and fieldbench.py times the Field methods.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import gate
import tracing
from workloads import WORKLOADS, job_key, ordered_jobs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

JOB_CAP_S = 60.0     # a job still running after this is killed and counts as failed
RUN_BUDGET_S = 170.0  # every job ends within this many seconds of the run start
SETUP_PROBES = 24    # fresh-process imports of sumrank.cli per timed run
T0_MARK = "{t0}"     # replaced in a launcher command by the spawn time
TIMED_LOAD_MODEL = ("closed loop, one client: one process launches one job process "
                    "at a time and waits for it")
TRACED_LOAD_MODEL = ("two lanes of one job process each: every job runs untraced and "
                     "span-traced at the same time, then the counting pass and "
                     "fieldbench.py share the lanes")

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("decided_frac", "1"),
    ("peak_rss_mb", "MB"),
)
# printed with the end-to-end metrics but left out of the JSON line and
# BENCHMARK.json: failed_frac is 0 at the seed commit, and max_job_s, one job's
# wall time, spreads across seeds by more than the largest bound allowed
PRINTED_ONLY = (("max_job_s", "s"), ("failed_frac", "1"))
PER_LAYER = (
    ("gf.extension_s", "s"), ("gf.fields_built", "count"), ("gf.extension_calls", "count"),
    ("gf.add_calls", "count"), ("gf.mul_calls", "count"), ("gf.inv_calls", "count"),
    ("gf.add_ns.GF9", "ns"), ("gf.mul_ns.GF9", "ns"), ("gf.add_ns.GF729", "ns"),
    ("gf.mul_ns.GF729", "ns"), ("gf.inv_ns.GF729", "ns"),
    ("hamming.rref_s", "s"), ("hamming.rref_calls", "count"), ("hamming.rref_cells", "count"),
    ("hamming.nullspace_s", "s"), ("hamming.cyclic_code_s", "s"),
    ("hamming.min_distance_s", "s"), ("hamming.low_weight_pool_s", "s"),
    ("hamming.covering_radius_s", "s"),
    ("spaces.rank_array_s", "s"), ("spaces.rank_tables_built", "count"),
    ("spaces.rank_array_calls", "count"), ("spaces.ball_volume_s", "s"),
    ("construct.build_recipe_s", "s"), ("construct.describe_s", "s"),
    ("construct.flat_parity_s", "s"), ("construct.codewords_enumerated", "count"),
    ("construct.packed_from_symbols_calls", "count"),
    ("certify.sr_min_distance_s", "s"), ("certify.distance_calls", "count"),
    ("certify.distance_inexact", "count"),
    ("certify.sr_covering_radius_s", "s"), ("certify.radius_calls", "count"),
    ("certify.radius_budget_stops", "count"), ("certify.radius_wasted_s", "s"),
    ("certify.syndromes_covered", "count"),
    ("certify.certify_code_s", "s"), ("certify.to_json_s", "s"),
    ("cli.self_s", "s"), ("cli.startup_s", "s"),
    ("trace.overhead_frac", "1"), ("trace.coverage_frac", "1"),
)


@dataclass
class JobRun:
    """One job process: what it cost and what the gate made of its output."""

    key: str
    lane: str  # "timed", "spans" or "count"
    wall: float
    cpu: float
    rss_mb: float
    exit_code: int | None
    timed_out: bool
    out: str
    outcome: gate.Outcome | None = None
    trace: dict | None = None


class Runner:
    """Spawns job processes inside one work directory of the checkout."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(workdir))
        self._serial = 0
        self._lock = threading.Lock()

    def next_path(self, stem: str) -> Path:
        with self._lock:
            self._serial += 1
            return self.workdir / f"{self._serial:04d}-{stem}"

    def spawn(self, cmd: list[str], log: Path, cap: float):
        """(wall, cpu, rss_mb, exit code, timed out) of one child process."""
        lock = threading.Lock()
        state = {"reaped": False, "killed": False}
        with open(log, "wb") as out:
            start = time.perf_counter()
            cmd = [str(start) if c == T0_MARK else c for c in cmd]
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=subprocess.STDOUT)

            def kill():
                with lock:
                    if not state["reaped"]:
                        state["killed"] = True
                        os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(cap, kill)
            timer.start()
            try:
                # wait without reaping, so the pid stays ours until the timer is off
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                wall = time.perf_counter() - start
                with lock:
                    state["reaped"] = True
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                proc.returncode, state["killed"])

    def probe(self) -> float:
        """Wall time of one fresh-process `import sumrank.cli`."""
        cmd = [sys.executable, "-c", "import sumrank.cli"]
        wall, *_, code, _ = self.spawn(cmd, self.next_path("probe.log"), JOB_CAP_S)
        if code != 0:
            raise RuntimeError(f"import sumrank.cli failed with exit code {code}")
        return wall

    def run_job(self, argv, lane: str) -> JobRun:
        key = job_key(argv)
        out = self.next_path("out.json")
        trace = out.with_name(out.name.replace("out.json", "trace.json"))
        if lane == "timed":
            cmd = [sys.executable, "-m", "sumrank.cli"]
        else:
            cmd = [sys.executable, str(BENCH / "launch.py"), lane, str(trace), key, T0_MARK, "--"]
        cmd += [*argv, "--out", str(out)]
        cap = min(JOB_CAP_S, self.deadline - time.perf_counter())
        if cap <= 0:
            outcome = gate.Outcome("failed", False, reason="not started: run time budget spent")
            return JobRun(key, lane, 0.0, 0.0, 0.0, None, True, str(out), outcome)
        wall, cpu, rss, code, killed = self.spawn(cmd, out.with_suffix(".log"), cap)
        return JobRun(key, lane, wall, cpu, rss, code, killed, str(out),
                      trace=None if lane == "timed" else _load_json(trace))

    def check(self, runs: list[JobRun]) -> None:
        """Fill in each run's gate outcome, from a gate.py child process."""
        todo = [r for r in runs if r.outcome is None]
        manifest = self.next_path("manifest.json")
        manifest.write_text(json.dumps([{"key": r.key, "exit": r.exit_code,
                                         "timed_out": r.timed_out, "out": r.out}
                                        for r in todo]))
        log = manifest.with_suffix(".log")
        *_, code, killed = self.spawn([sys.executable, str(BENCH / "gate.py"), str(manifest)],
                                      log, JOB_CAP_S)
        if code != 0 or killed:
            raise RuntimeError(f"gate.py failed:\n{log.read_text()}")
        outcomes = json.loads(log.read_text().strip().splitlines()[-1])
        for run, outcome in zip(todo, outcomes, strict=True):
            run.outcome = gate.Outcome(**outcome)


def _load_json(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


# ----------------------------------------------------------------------
# timed run
# ----------------------------------------------------------------------

def pass_metrics(runs: list[JobRun]) -> dict[str, float]:
    n = len(runs)
    return {
        "wall_s": sum(r.wall for r in runs),
        "cpu_s": sum(r.cpu for r in runs),
        "max_job_s": max(r.wall for r in runs),
        "decided_frac": sum(r.outcome.decided for r in runs) / n,
        "failed_frac": sum(r.outcome.failed for r in runs) / n,
        "peak_rss_mb": max(r.rss_mb for r in runs),
    }


def timed_run(workload: str, seed: int, seconds: float, runner: Runner):
    jobs = ordered_jobs(workload, seed)
    probes_per_job = math.ceil(SETUP_PROBES / len(jobs))
    runner.probe()  # warm the bytecode and page caches; not a sample
    setup: list[float] = []
    passes: list[list[JobRun]] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        runs = []
        for argv in jobs:
            setup.extend(runner.probe() for _ in range(probes_per_job))
            runs.append(runner.run_job(argv, "timed"))
        passes.append(runs)
        now = time.perf_counter()
        if now - start >= seconds or now + (now - pass_start) > runner.deadline:
            break
    runner.check([r for runs in passes for r in runs])
    per_pass = [pass_metrics(runs) for runs in passes]
    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in per_pass[0]}
    metrics["setup_s"] = statistics.median(setup)
    all_runs = [r for runs in passes for r in runs]
    notes = [f"passes: {len(passes)}; setup samples: {len(setup)}; "
             f"setup_s quartiles: {_quartiles(setup)}"]
    return metrics, all_runs, notes


def _quartiles(values) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4f} / {q2:.4f} / {q3:.4f} s"


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------

def traced_run(workload: str, seed: int, runner: Runner):
    """Two lanes, one per core.  First each job runs untraced in one lane while
    its span-traced twin runs in the other, so both see the same load; then the
    counting pass, longest job first, and fieldbench.py share the lanes."""
    jobs = ordered_jobs(workload, seed)

    def field_timings() -> dict[str, float]:
        log = runner.next_path("fieldbench.log")
        cmd = [sys.executable, str(BENCH / "fieldbench.py"), str(seed)]
        *_, code, killed = runner.spawn(cmd, log, JOB_CAP_S)
        if code != 0 or killed:
            raise RuntimeError(f"fieldbench.py failed:\n{log.read_text()}")
        return json.loads(log.read_text().strip().splitlines()[-1])

    runner.probe()  # warm the bytecode and page caches
    with ThreadPoolExecutor(max_workers=2) as lanes:
        pairs = [(lanes.submit(runner.run_job, argv, "timed"),
                  lanes.submit(runner.run_job, argv, "spans")) for argv in jobs]
        timed = [t.result() for t, _ in pairs]
        traced = [s.result() for _, s in pairs]
        longest_first = sorted(zip(jobs, timed), key=lambda jr: -jr[1].wall)
        counting = [lanes.submit(runner.run_job, argv, "count") for argv, _ in longest_first]
        field_ns = lanes.submit(field_timings)
        counted = [c.result() for c in counting]
        field_ns = field_ns.result()
    runs = timed + traced + counted
    runner.check(runs)
    return layer_metrics(timed, traced, counted, field_ns), runs, []


def layer_metrics(timed, traced, counted, field_ns) -> dict[str, float]:
    spans: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    startup = 0.0
    for run in traced:
        if run.trace is None:
            continue
        startup += run.trace["startup_s"]
        for name, rec in tracing.summarize(run.trace["spans"]).items():
            acc = spans.setdefault(name, {"calls": 0, "self": 0.0, "total": 0.0})
            for k in acc:
                acc[k] += rec[k]
        for k, v in run.trace["counters"].items():
            counters[k] = counters.get(k, 0) + v
    for run in counted:
        for k, v in (run.trace or {}).get("counters", {}).items():
            if k.startswith("gf."):
                counters[k] = counters.get(k, 0) + v

    def total(name):
        return spans.get(name, {}).get("total", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_time(match):
        return sum(rec["self"] for name, rec in spans.items() if match(name))

    traced_wall = sum(r.wall for r in traced)
    self_sum = sum(rec["self"] for rec in spans.values())
    metrics = {
        "gf.extension_s": total("gf.Field.extension"),
        "gf.extension_calls": calls("gf.Field.extension"),
        "hamming.rref_s": total("hamming.rref"),
        "hamming.rref_calls": calls("hamming.rref"),
        "hamming.nullspace_s": total("hamming.nullspace"),
        "hamming.cyclic_code_s": total("hamming.cyclic_code"),
        "hamming.min_distance_s": total("hamming.min_distance"),
        "hamming.low_weight_pool_s": total("hamming.low_weight_pool"),
        "hamming.covering_radius_s": total("hamming.covering_radius"),
        "spaces.rank_array_s": total("spaces.rank_array"),
        "spaces.rank_array_calls": calls("spaces.rank_array"),
        "spaces.ball_volume_s": total("spaces.ball_volume_exact"),
        "construct.build_recipe_s": self_time(lambda n: n == "construct.build_recipe"),
        "construct.describe_s": self_time(
            lambda n: n.startswith("construct.") and n.endswith(".describe")),
        "construct.flat_parity_s": self_time(
            lambda n: n in ("construct.SumRankCode.flat_generator",
                            "construct.SumRankCode.flat_parity")),
        "certify.sr_min_distance_s": total("certify.sr_min_distance"),
        "certify.distance_calls": calls("certify.sr_min_distance"),
        "certify.sr_covering_radius_s": total("certify.sr_covering_radius"),
        "certify.radius_calls": calls("certify.sr_covering_radius"),
        "certify.certify_code_s": self_time(lambda n: n == "certify.certify_code"),
        "certify.to_json_s": total("certify.Certificate.to_json"),
        "cli.self_s": self_time(lambda n: n.startswith("cli.")),
        "cli.startup_s": startup,
        "trace.overhead_frac": traced_wall / sum(r.wall for r in timed) - 1,
        "trace.coverage_frac": (self_sum + startup) / traced_wall,
    }
    metrics.update(field_ns)
    for name, _ in PER_LAYER:
        metrics.setdefault(name, counters.get(name, 0))
    return {name: metrics[name] for name, _ in PER_LAYER}


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def environment(seed: int, trace: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = "unknown (git failed)"
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    # asked of a child, so that this process stays small (see gate.py)
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True).stdout.strip() or "unknown"
    return {
        "seed": seed, "trace": trace, "commit": commit,
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "cpu_model": cpu_model,
        "load_model": TRACED_LOAD_MODEL if trace else TIMED_LOAD_MODEL,
    }


def print_details(runs: list[JobRun]) -> None:
    print(f"{'lane':<6} {'wall_s':>8} {'cpu_s':>8} {'rss_mb':>7} {'exit':>4}  "
          f"{'verdict':<12} {'values':<22} {'gate':<8} job")
    for r in runs:
        o = r.outcome
        values = " ".join(f"{k}={v}" for k, v in o.values.items() if v is not None)
        gate_txt = o.status + (f" ({o.reason})" if o.reason else "")
        print(f"{r.lane:<6} {r.wall:8.3f} {r.cpu:8.3f} {r.rss_mb:7.1f} {str(r.exit_code):>4}  "
              f"{str(o.verdict or '-'):<12} {values:<22} {gate_txt:<8} {r.key}")
    for r in runs:
        if r.outcome.status == "improved":
            print(f"IMPROVEMENT: {r.key} now ends {r.outcome.verdict} with {r.outcome.values}")


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float):
    workdir = ROOT / ".bench_build" / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        runner = Runner(workdir, deadline)
        if trace:
            metrics, runs, notes = traced_run(workload, seed, runner)
        else:
            metrics, runs, notes = timed_run(workload, seed, seconds, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(runs)
    failed = sum(r.outcome.failed for r in runs)
    decided = sum(r.outcome.decided for r in runs)
    print(f"== workload {workload} ==")
    for note in notes:
        print(f"# {note}")
    print_details(runs)
    print(f"job processes: {attempted}; decided {decided}, failed {failed}")
    listed = PER_LAYER if trace else END_TO_END + PRINTED_ONLY
    counts = {"decided_frac": f"  ({decided}/{attempted})",
              "failed_frac": f"  ({failed}/{attempted})"}
    for name, unit in listed:
        tail = "" if trace else counts.get(name, "")
        print(f"  {name:<38} {metrics[name]:>16.6f} {unit}{tail}")
    reported = {name: {"value": metrics[name], "unit": unit}
                for name, unit in (PER_LAYER if trace else END_TO_END)}
    return failed == 0, attempted, failed, reported


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sumrank" / "cli.py").is_file():
        print(f"error: no sumrank source tree at {SRC}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    for key, value in environment(args.seed, args.trace).items():
        print(f"# {key}: {value}")
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        deadline = (time.perf_counter() + RUN_BUDGET_S if args.workload == "all"
                    else start + RUN_BUDGET_S)
        ok, n, bad, reported = run_workload(workload, args.seed, args.seconds,
                                            args.trace, deadline)
        correct, attempted, failed = correct and ok, attempted + n, failed + bad
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in reported.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

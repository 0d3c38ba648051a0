"""Oracle-checked benchmark of the `sympref` command line.

    python3 perfbench/run.py --workload verdict --seed 1 --seconds 30 --trace 0

Without --workload every workload runs in turn.  Each workload's inputs
are generated from the seed (see workloads.py).  With --trace 0 every
case runs as its own `python -m sympref.cli` process, one at a time (a
closed loop with one client), right after a run of a fixed reference
job, in whole passes over the case list for about --seconds seconds;
case times are reported as multiples of the reference job's time, the
end-to-end metrics are printed by name, and the last line of output is
a JSON summary.  With --trace 1 the cases run
once as processes (for CPU time) and then three times in this
interpreter (untraced, traced, counted) for the per-layer metrics.
Every output is checked; a failed check counts the case as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

CASE_TIMEOUT_S = 120
SETUP_SAMPLES = 20
# What every CLI call pays before it reads its input.
SETUP_JOB = "import sympref.cli"
# A fixed pure-Python job that does not touch the program: exact rational
# arithmetic and dict stores, as the program's inner loops do.  It runs
# for about 0.1 s; set-up time is reported in seconds of a host on which
# it takes REFERENCE_S.
REFERENCE_JOB = """\
from fractions import Fraction
s, d = Fraction(0), {}
for i in range(1, 12000):
    s += Fraction(i % 97, i % 13 + 1)
    d[i * 7919 % 1009] = s
"""
REFERENCE_S = 0.1
IMPORT_SAMPLES = 5


@dataclass(frozen=True)
class Process:
    wall_s: float
    exit_code: int
    stdout: str
    stderr: str
    peak_rss_mb: float
    cpu_s: float


def run_process(args: list[str], workdir: Path) -> Process:
    """Run one child to completion; its own peak RSS and CPU come from wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    err_path = workdir / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(CASE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
            proc.stdout.close()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Process(
        wall_s=wall,
        exit_code=proc.returncode,
        stdout=out.decode("utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
    )


def cli_args(case: workloads.Case) -> list[str]:
    return [sys.executable, "-m", "sympref.cli", *case.argv]


def judge(case: workloads.Case, result: Process, failures: list[str]) -> None:
    problem = workloads.judge(case, result.exit_code, result.stdout)
    if problem:
        failures.append(problem + (" | stderr: " + result.stderr.strip() if result.stderr else ""))


def run_cases(cases, workdir: Path, failures: list[str]) -> list[Process]:
    """One pass over the cases, one process at a time, each output judged."""
    results = [run_process(cli_args(case), workdir) for case in cases]
    for case, result in zip(cases, results):
        judge(case, result, failures)
    return results


def python_wall(code: str, workdir: Path) -> float:
    """Wall time of a process that runs `code` and exits."""
    result = run_process([sys.executable, "-c", code], workdir)
    if result.exit_code != 0:
        raise RuntimeError("python -c %r failed: %s" % (code.splitlines()[0], result.stderr))
    return result.wall_s


def measure_imports(workdir: Path) -> tuple[float, float]:
    """Median cumulative import time of `sympref.cli` and of numpy, from -X importtime."""
    cli_us, numpy_us = [], []
    for _ in range(IMPORT_SAMPLES):
        result = run_process([sys.executable, "-X", "importtime", "-c", "import sympref.cli"], workdir)
        found = {}
        for line in result.stderr.splitlines():
            m = re.match(r"import time:\s*\d+ \|\s*(\d+) \| (\s*)(\S+)$", line)
            if m:
                found[m.group(3)] = int(m.group(1))
        cli_us.append(found.get("sympref.cli", 0))
        numpy_us.append(found.get("numpy", 0))
    return statistics.median(cli_us) / 1e6, statistics.median(numpy_us) / 1e6


def end_to_end(cases, seconds: float, workdir: Path):
    """Whole passes while the next one still fits in `seconds` (at least one).

    The host's speed swings up to twofold, for seconds to minutes at a
    time (see NOTES.md), so a raw wall time reads the host as much as
    the program.  Every case process therefore runs right after a run of
    the fixed reference job and is timed as a multiple of it; a case's
    figure is its median multiple over the passes.  The set-up probes
    run between cases throughout the run, each followed by a run of the
    reference job, and their median multiple is scaled to seconds by
    REFERENCE_S.  Raw seconds are printed too.
    """
    failures: list[str] = []
    python_wall(SETUP_JOB, workdir)  # let the bytecode cache fill
    python_wall(REFERENCE_JOB, workdir)
    setup: list[float] = []
    setup_ratios: list[float] = []

    def probe():
        setup.append(python_wall(SETUP_JOB, workdir))
        setup_ratios.append(setup[-1] / python_wall(REFERENCE_JOB, workdir))

    last_probe = time.perf_counter()
    passes: list[float] = []
    processes: list[Process] = []
    walls: list[list[float]] = [[] for _ in cases]
    ratios: list[list[float]] = [[] for _ in cases]
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for i, case in enumerate(cases):
            if time.perf_counter() - last_probe >= seconds / SETUP_SAMPLES:
                probe()
                last_probe = time.perf_counter()
            reference = python_wall(REFERENCE_JOB, workdir)
            result = run_process(cli_args(case), workdir)
            processes.append(result)
            walls[i].append(result.wall_s)
            ratios[i].append(result.wall_s / reference)
            judge(case, result, failures)
        passes.append(time.perf_counter() - pass_start)
        if time.perf_counter() - start + statistics.mean(passes) > seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        probe()
    case_ratios = [statistics.median(r) for r in ratios]
    case_walls = [statistics.median(w) for w in walls]
    metrics = {
        "setup_s": (REFERENCE_S * statistics.median(setup_ratios), "s"),
        "wall_rel": (sum(case_ratios), "ref_jobs"),
        "case_p50_rel": (statistics.median(case_ratios), "ref_jobs"),
        "peak_rss_mb": (max(p.peak_rss_mb for p in processes), "MB"),
    }
    raw = {
        "wall_s": (sum(case_walls), "s"),
        "case_p50_s": (statistics.median(case_walls), "s"),
    }
    samples = "%d cases x %d passes" % (len(cases), len(passes))
    notes = {
        "setup_s": "median of %d, scaled; raw median %.4f s" % (len(setup), statistics.median(setup)),
        "wall_rel": "sum over the cases of each one's median; " + samples,
        "case_p50_rel": "median over the cases of each one's median; " + samples,
        "peak_rss_mb": "largest of %d case processes" % len(processes),
        "wall_s": "raw seconds, as wall_rel; not in the JSON line",
        "case_p50_s": "raw seconds, as case_p50_rel; not in the JSON line",
    }
    return metrics, raw, notes, len(processes), failures


def traced(cases, spans_path: Path, workdir: Path):
    failures: list[str] = []
    import_s, numpy_s = measure_imports(workdir)
    processes = run_cases(cases, workdir, failures)
    pkg = layers.import_sympref(SRC)
    metrics, attempted, more = layers.traced_run(pkg, cases, spans_path)
    metrics.update({
        "cli.import_s": (import_s, "s"),
        "cli.numpy_import_s": (numpy_s, "s"),
        "cli.cpu_s": (sum(p.cpu_s for p in processes), "s"),
    })
    notes = {"trace.overhead_ratio": "spans written to %s" % spans_path}
    return metrics, {}, notes, attempted + len(processes), failures + more


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = BENCH / "_work" / ("%s-%d-%d" % (workload, seed, os.getpid()))
    try:
        cases = workloads.build(workload, seed, workdir)
        if trace:
            spans_path = BENCH / "_out" / ("spans-%s-%d.jsonl" % (workload, seed))
            metrics, raw, notes, attempted, failures = traced(cases, spans_path, workdir)
        else:
            metrics, raw, notes, attempted, failures = end_to_end(cases, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in failures:
        print("FAILED " + problem, file=sys.stderr)
    print("workload %s, seed %d, %d cases" % (workload, seed, len(cases)))
    for name, (value, unit) in {**metrics, **raw}.items():
        note = notes.get(name)
        print("  %-40s %14.6g %-6s%s" % (name, value, unit, "  (%s)" % note if note else ""))
    print("  %-40s %14.6g %-6s  (%d of %d attempted)" % (
        "failed_frac", len(failures) / attempted, "ratio", len(failures), attempted,
    ))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sympref" / "cli.py").is_file():
        print("error: %s/sympref/cli.py not found; run from a checkout of the repository" % SRC,
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of realwonder: end-to-end figures of three workloads, or,
with --trace 1, the self time and counts of each layer.

    python3 perfbench/run.py --workload moduli-n8 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
src/.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  See perfbench/README.md.
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
from collections import namedtuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)

import checks  # noqa: E402
import dcpgen  # noqa: E402
import oracles  # noqa: E402
from tracer import self_times  # noqa: E402

PROBES = 7  # set-up probes before the timed loop, and again after it
MIN_JOBS = 2  # fresh-interpreter jobs per run, whatever the budget
DEADLINE_S = 170  # every child is killed past this point of the run
DCP_BATCH = 300  # seeded arrangements per dcp-batch round
STOP_MESSAGE = "meets the intersecting conjugate pair"

P1 = {
    "name": "P1",
    "dim_c": 1,
    "betti_c": [1, 0, 1],
    "betti_r": [1, 1],
    "real_nonempty": True,
    "flags": {"effective": "yes", "maximal": "yes", "galois_maximal": "yes"},
}


# argv: the CLI arguments; check: report -> problems, or None; stops: the
# job is a fixed touching-pair input on which the engine stops
Job = namedtuple("Job", "name argv report check stops")


# Children cache bytecode beside the sources, as a default interpreter
# does, whatever the caller's environment says: the untimed first probe
# compiles realwonder, and later probes and jobs start from the cache.
CHILD_ENV = {
    k: v
    for k, v in os.environ.items()
    if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
}


class BenchError(Exception):
    pass


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


class Run:
    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.out = os.path.join(OUT, f"{args.workload}-{args.seed}-{args.trace}")
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        self.problems = []

    def remaining(self) -> float:
        left = DEADLINE_S - (time.monotonic() - self.start)
        if left <= 0:
            raise BenchError("run deadline passed")
        return left

    def child(self, argv) -> str:
        try:
            proc = subprocess.run(
                [sys.executable, WORKER] + argv,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=self.remaining(),
                env=CHILD_ENV,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {argv[0]} passed the run deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker {argv[0]} exited {proc.returncode}: {proc.stderr.strip()}")
        return proc.stdout

    def probe(self) -> float:
        launched = time.monotonic()
        ready = float(self.child(["probe", SRC]).strip())
        return ready - launched

    def worker(self, jobs, reports, seconds, tag) -> dict:
        spec = {
            "src": SRC,
            "jobs": jobs,
            "reports": reports,
            "seconds": seconds,
            "trace": os.path.join(self.out, f"trace-{tag}.json") if self.args.trace else None,
        }
        spec_path = os.path.join(self.out, f"spec-{tag}.json")
        result_path = os.path.join(self.out, f"result-{tag}.json")
        _write_json(spec_path, spec)
        self.child(["jobs", spec_path, result_path])
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        result["trace_path"] = spec["trace"]
        return result


# ----------------------------------------------------------------------
# workloads: each returns the job list and how to check each report


def moduli_n8(run):
    keel = oracles.keel(8)

    def check(report):
        return (
            checks.expect_vectors(report, complex_even=keel, real=keel)
            + checks.conjugation_space(report)
        )

    report = os.path.join(run.out, "moduli-n8.json")
    argv = ["moduli", "--n", "8", "--sigma", "id", "--machine", report]
    return [Job("moduli-n8", argv, report, check, False)]


def fm_n6(run):
    space = os.path.join(run.out, "p1.json")
    _write_json(space, P1)
    complex_even = oracles.even_entries(oracles.fm_nested(6, 1, P1["betti_c"], 2))
    real = oracles.fm_nested(6, 1, P1["betti_r"], 1)

    def check(report):
        problems = checks.expect_vectors(report, complex_even=complex_even, real=real)
        if report["final"]["verdict"] != "ConjugationSpace":
            problems.append(f"verdict {report['final']['verdict']}, expected ConjugationSpace")
        return problems

    report = os.path.join(run.out, "fm-n6.json")
    argv = ["config", "--model", "fm", "--n", "6", "--space", space, "--machine", report]
    return [Job("fm-n6", argv, report, check, False)]


def dcp_batch(run):
    cases = [
        (f"seed{run.args.seed}-{i}", arrangement, False)
        for i, arrangement in enumerate(dcpgen.seeded_batch(run.args.seed, DCP_BATCH))
    ] + dcpgen.touching_pair_cases()
    jobs = []
    for name, arrangement, stops in cases:
        path = os.path.join(run.out, f"{name}.in.json")
        _write_json(path, arrangement)
        report = os.path.join(run.out, f"{name}.json")
        check = checks.conjugation_space if dcpgen.is_all_real(arrangement) else None
        jobs.append(Job(name, ["dcp", path, "--machine", report], report, check, stops))
    return jobs


# "fresh": one job per worker interpreter; "batch": all jobs in one worker
WORKLOADS = {
    "moduli-n8": (moduli_n8, "fresh"),
    "fm-n6": (fm_n6, "fresh"),
    "dcp-batch": (dcp_batch, "batch"),
}


# ----------------------------------------------------------------------


def timed_loop(run, jobs, mode):
    """Run the jobs for the budget; returns (worker results, loop seconds)."""
    argvs = [job.argv for job in jobs]
    reports = [job.report for job in jobs]
    seconds = run.args.seconds
    if mode == "batch":
        result = run.worker(argvs, reports, seconds, "batch")
        return [result], result["loop_s"]
    results, walls = [], []
    loop_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(run.worker(argvs, reports, None, str(len(results))))
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - loop_start
        projected = elapsed + statistics.median(walls)
        # a job too slow for MIN_JOBS within three budgets ends the run early
        if projected > seconds and (len(results) >= MIN_JOBS or projected > 3 * seconds):
            return results, elapsed


def check_outputs(run, jobs, results):
    """Exit codes, byte identity of repeated reports, and every report
    against its checks.  Returns the number of failed operations."""
    sys.path.insert(0, SRC)
    from realwonder.report import from_json, to_json

    failed = 0
    digests = {}
    for result in results:
        for index, code, _, _, message, digest in result["records"]:
            job = jobs[index]
            if job.stops and code == 3 and STOP_MESSAGE in message:
                failed += 1
            elif code != 0:
                run.problems.append(f"{job.name}: exit {code}: {message}")
            else:
                digests.setdefault(index, set()).add(digest)
    for index, found in sorted(digests.items()):
        job = jobs[index]
        if len(found) != 1:
            run.problems.append(f"{job.name}: repeated runs gave {len(found)} different reports")
            continue
        with open(job.report, encoding="utf-8") as handle:
            text = handle.read()
        report = json.loads(text)
        problems = checks.generic(report) + checks.round_trip(text, from_json, to_json)
        if job.check is not None:
            problems += job.check(report)
        run.problems += [f"{job.name}: {p}" for p in problems]
    return failed


def end_to_end(jobs, results, loop_s, setup):
    records = [r for result in results for r in result["records"]]
    sizes = [os.path.getsize(job.report) for job in jobs if os.path.exists(job.report)]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "job_s.p50": (statistics.median(r[2] for r in records), "s"),
        "jobs_per_s": (len(records) / loop_s, "1/s"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in results) * 1024 / 1e6, "MB"),
        "report_mb": (sum(sizes) / len(sizes) / 1e6, "MB"),
    }


def per_layer(results):
    records = [r for result in results for r in result["records"]]
    jobs = len(records)
    totals = {}  # layer -> [calls, self_ns]
    counts = {}
    missing = set()
    for result in results:
        with open(result["trace_path"], encoding="utf-8") as handle:
            trace = json.load(handle)
        missing.update(trace["missing"])
        for (_, layer), (calls, ns) in self_times(trace).items():
            entry = totals.setdefault(layer, [0, 0])
            entry[0] += calls
            entry[1] += ns
        for _, name, value in trace["counts"]:
            counts[name] = counts.get(name, 0) + value
    if missing:
        sys.stderr.write(f"trace: call sites not found: {sorted(missing)}\n")

    def calls(layer):
        return (totals.get(layer, [0, 0])[0] / jobs, "count")

    def self_s(layer):
        return (totals.get(layer, [0, 0])[1] / 1e9 / jobs, "s")

    def count(name, unit="count"):
        return (counts.get(name, 0) / jobs, unit)

    meets = counts.get("arrangement.closure.meets", 0)
    return {
        "subspaces.rref.calls": calls("subspaces.rref"),
        "subspaces.rref.self_s": self_s("subspaces.rref"),
        "subspaces.intersect.calls": calls("subspaces.intersect"),
        "subspaces.linear_rank.calls": calls("subspaces.linear_rank"),
        "subspaces.linear_rank.self_s": self_s("subspaces.linear_rank"),
        "partitions.join.calls": calls("partitions.join"),
        "partitions.join.self_s": self_s("partitions.join"),
        "partitions.int_rank.calls": calls("partitions.int_rank"),
        "partitions.int_rank.self_s": self_s("partitions.int_rank"),
        "arrangement.closure.self_s": self_s("arrangement.closure"),
        "arrangement.closure.meets": count("arrangement.closure.meets"),
        "arrangement.closure.strata": count("arrangement.closure.strata"),
        "arrangement.closure.useful": (
            counts.get("arrangement.closure.found", 0) / meets if meets else 0.0,
            "ratio",
        ),
        "arrangement.building.calls": calls("arrangement.building"),
        "arrangement.building.self_s": self_s("arrangement.building"),
        "arrangement.validate_strata.calls": calls("arrangement.validate_strata"),
        "arrangement.validate_strata.self_s": self_s("arrangement.validate_strata"),
        "arrangement.validate_strata.strata": count("arrangement.validate_strata.strata"),
        "models.build.self_s": self_s("models.build"),
        "engine.step.calls": calls("engine.step"),
        "engine.step.self_s": self_s("engine.step"),
        "engine.strata.final": count("engine.run.strata_final"),
        "engine.table_entries.final": count("engine.run.table_entries_final"),
        "report.build.self_s": self_s("report.build"),
        "report.to_json.self_s": self_s("report.to_json"),
        "report.to_json.mb": count("report.to_json.mb", "MB"),
        "report.render_text.self_s": self_s("report.render_text"),
        "cli.import_s": (statistics.median(r["import_s"] for r in results), "s"),
        "cli.load.self_s": self_s("cli.load"),
        "job.cpu_s": (statistics.median(r[3] for r in records), "s"),
        "traced.job_s.p50": (statistics.median(r[2] for r in records), "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "realwonder", "__init__.py")):
        sys.stderr.write(f"no realwonder sources under {SRC}\n")
        return 2
    make_jobs, mode = WORKLOADS[args.workload]
    try:
        run = Run(args)
        jobs = make_jobs(run)
        run.probe()  # untimed: leaves bytecode compiled
        setup = [run.probe() for _ in range(PROBES)]
        results, loop_s = timed_loop(run, jobs, mode)
        setup += [run.probe() for _ in range(PROBES)]
        failed = check_outputs(run, jobs, results)
        if args.trace:
            metrics = per_layer(results)
        else:
            metrics = end_to_end(jobs, results, loop_s, setup)
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 1
    for problem in run.problems:
        sys.stderr.write(f"check failed: {problem}\n")
    attempted = sum(len(result["records"]) for result in results)
    print(
        json.dumps(
            {
                "correct": not run.problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

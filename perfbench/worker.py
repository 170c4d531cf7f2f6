"""Child process of the benchmark: a fresh interpreter, as a CLI user
starts one.

    python3 worker.py probe SRC
        import realwonder's CLI from SRC, build its argument parser, and
        print time.monotonic() at that moment (the parent subtracts its
        own launch time).
    python3 worker.py jobs SPEC RESULT
        run the CLI argument lists in SPEC through realwonder.cli.main,
        in rounds, and write per-job figures to RESULT.

SPEC holds "src", "jobs" (argument lists), "reports" (the --machine
path of each job, or null), "seconds" (keep starting whole rounds while
the next one is expected to end within this budget; null for one
round) and "trace" (a path for the spans, or null).
"""

from __future__ import annotations

import os
import sys
import time

# the probe imports nothing more than this before realwonder


def _import_cli(src: str):
    sys.path.insert(0, src)
    import realwonder.cli as cli

    expected = os.path.join(os.path.abspath(src), "realwonder")
    if os.path.dirname(os.path.abspath(cli.__file__)) != expected:
        sys.exit(f"realwonder imported from {cli.__file__}, not from {expected}")
    return cli


def probe(src: str) -> None:
    cli = _import_cli(src)
    cli.build_parser()
    ready = time.monotonic()
    sys.stdout.write(f"{ready!r}\n")


def jobs(spec_path: str, result_path: str) -> None:
    import contextlib
    import hashlib
    import io
    import json
    import resource
    import statistics
    import traceback

    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    start = time.perf_counter()
    cli = _import_cli(spec["src"])
    import_s = time.perf_counter() - start
    tracer = None
    if spec["trace"]:
        from tracer import Tracer  # beside this script, on sys.path

        tracer = Tracer()
        tracer.install()

    records = []  # [job index, exit code, wall s, cpu s, first stderr line, digest]
    round_s = []
    loop_start = time.perf_counter()
    sink = open(os.devnull, "w", encoding="utf-8")
    job_id = 0
    try:
        while True:
            round_start = time.perf_counter()
            for index, argv in enumerate(spec["jobs"]):
                err = io.StringIO()
                report = spec["reports"][index]
                if report and os.path.exists(report):
                    os.remove(report)
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
                    cpu0 = time.process_time()
                    t0 = time.perf_counter()
                    try:
                        if tracer is None:
                            code = cli.main(argv)
                        else:
                            with tracer.job_span(job_id):
                                code = cli.main(argv)
                    except SystemExit as exc:  # argparse rejected the arguments
                        code = exc.code
                    except Exception:  # a crash is recorded, and the batch goes on
                        code = -1
                        err.write(traceback.format_exc().strip().splitlines()[-1])
                    wall = time.perf_counter() - t0
                    cpu = time.process_time() - cpu0
                digest = None
                if report and code == 0:
                    with open(report, "rb") as handle:
                        digest = hashlib.sha256(handle.read()).hexdigest()
                message = err.getvalue().strip().splitlines()
                records.append([index, code, wall, cpu, message[0] if message else "", digest])
                job_id += 1
            now = time.perf_counter()
            round_s.append(now - round_start)
            expected = statistics.median(round_s)
            if spec["seconds"] is None or now - loop_start + expected > spec["seconds"]:
                break
    finally:
        sink.close()
    loop_s = time.perf_counter() - loop_start
    result = {
        "import_s": import_s,
        "loop_s": loop_s,
        "records": records,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        with open(spec["trace"], "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle, separators=(",", ":"))
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "probe":
        probe(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "jobs":
        jobs(sys.argv[2], sys.argv[3])
    else:
        sys.exit(__doc__)

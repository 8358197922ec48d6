"""One workload in one process: set up, run jobs, check them, report.

    python3 perfbench/worker.py --workload <name> --seed <n>
        (--seconds <s> | --jobs <n> [--trace] | --setup-only)
        --launched-ns <time.monotonic_ns() when the process was started>

Run from the root of an opkit checkout; opkit is imported from ``src``.
``run.py`` starts this script and turns its report into the metrics.

* ``--seconds``: a closed loop, one job at a time, until the time is up
  and the last round of jobs is whole, so every run has the same mix.
* ``--jobs``: exactly that many jobs, traced with ``--trace``, so that the
  counts repeat from run to run.
* ``--setup-only``: stop after set-up; only the set-up time is reported.
  Set-up time runs from the launch of the process to the first timed job,
  less one ``reference_loop`` timed at its start; the loop is timed again
  at its end.

Set-up is imports, building the workload's inputs and one warm-up job
(job 0); the timed jobs start at job 1.  Before each job, untimed, the
worker times ``reference_loop``, a fixed piece of pure Python that does not
use opkit; ``run.py`` uses it to take the machine's speed out of the job
times; it is timed once more after the last job.  Outputs are checked after
the timed part, with ``reference`` arithmetic.  The last line of stdout is the report as JSON.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, HERE)

from reference import poly_mul  # noqa: E402

# Fixed inputs of reference_loop, the same in every run.
_rng = random.Random(7)
REFERENCE_P, REFERENCE_Q = (
    {tuple(_rng.randint(0, 6) for _ in range(3)):
     Fraction(_rng.randint(-99, 99), _rng.randint(1, 99)) for _ in range(30)}
    for _ in range(2))
REFERENCE_ROW = [_rng.randint(-10**30, 10**30) for _ in range(60)]


def import_opkit():
    if not os.path.isfile(os.path.join(SRC, "opkit", "__init__.py")):
        raise SystemExit(f"worker: no opkit sources under {SRC}")
    sys.path.insert(0, SRC)
    import opkit
    if not os.path.abspath(opkit.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"worker: imported opkit from {opkit.__file__}")
    return opkit


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(opkit, seed: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "kernels": opkit.kernels.IMPLEMENTATION,
        "commit": git_commit(os.getcwd()),
        "seed": seed,
        "OPKIT_PURE_PYTHON": os.environ.get("OPKIT_PURE_PYTHON"),
        "OPKIT_TERM_CAP": os.environ.get("OPKIT_TERM_CAP"),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


def reference_loop() -> float:
    """Seconds taken by a fixed piece of exact arithmetic that is not opkit.

    Rational sums, dict updates, a sparse polynomial product and big-integer
    row updates: the kinds of work opkit's kernels do, on fixed inputs.  Its
    time tracks how fast the machine is running such code at that moment.
    """
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 750):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
    table: dict = {}
    for i in range(5000):
        key = (i % 31, i % 17)
        table[key] = table.get(key, 0) + i
    poly_mul(REFERENCE_P, REFERENCE_Q)
    row = REFERENCE_ROW
    for _ in range(100):
        row = [(a * 12345 - b * 678) // 3 for a, b in zip(row, REFERENCE_ROW)]
    return time.perf_counter() - start


def run_job(workload, job, tracer=None):
    """Run one job; returns (latency_ns, exit code, result)."""
    workload.prepare(job)
    if tracer is not None:
        tracer.job = job.index
        root = tracer.open("bench.job", "bench")
    start = time.perf_counter_ns()
    try:
        code, result = workload.run(job)
    except Exception:
        code, result = 1, traceback.format_exc()
    end = time.perf_counter_ns()
    if tracer is not None:
        tracer.close(root, start, end)
    return end - start, code, result


def check_all(workload, done) -> tuple[int, list[str], str]:
    """Check every completed job; returns failures, problems, digest."""
    failed = 0
    problems = list(workload.check_setup())
    digest = hashlib.sha256()
    for job, code, result in done:
        if code != 0:
            found = [f"exit code {code}: {str(result)[-300:]}"]
        else:
            try:
                found = workload.check(job, code, result)
            except Exception:
                found = [traceback.format_exc()[-300:]]
            digest.update(str(workload.digest(result)).encode())
        if found:
            failed += 1
            problems.extend(f"job {job.index}: {p}" for p in found)
    return failed, problems, digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched-ns", type=int, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--jobs", type=int)
    mode.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    reference_before = reference_loop()
    opkit = import_opkit()
    from workloads import WORKLOADS

    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=results_dir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        run_job(workload, workload.job(0))
        setup_s = (time.monotonic_ns() - args.launched_ns) / 1e9
        report = {"setup_s": setup_s - reference_before,
                  "setup_reference_s": [reference_before, reference_loop()]}
        if not args.setup_only:
            report.update(measure(workload, args))
            report["env"] = environment(opkit, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def measure(workload, args) -> dict:
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    done, latencies, references = [], [], []
    loop_start = time.perf_counter()
    index = 1
    while (len(done) < args.jobs if args.jobs is not None
           else time.perf_counter() - loop_start < args.seconds
           or (index - 1) % workload.round_size):
        job = workload.job(index)
        references.append(reference_loop())
        latency, code, result = run_job(workload, job, tracer)
        latencies.append(latency / 1e6)
        done.append((job, code, result))
        index += 1
    references.append(reference_loop())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
    failed, problems, digest = check_all(workload, done)
    report = {"latencies_ms": latencies, "reference_s": references,
              "attempted": len(done), "failed": failed,
              "problems": problems[:20], "digest": digest,
              "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        report["layers"] = tracer.report()
        name = f"spans-{args.workload}-seed{args.seed}.json.gz"
        report["spans_file"] = os.path.join("perfbench", "results", name)
        with gzip.open(os.path.join(HERE, "results", name), "wt",
                       encoding="utf-8") as fh:
            json.dump(tracer.span_table(), fh)
    return report


if __name__ == "__main__":
    sys.exit(main())

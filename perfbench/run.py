"""opkit's benchmark: one seeded workload per run, every output checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of an opkit checkout; it imports opkit from ``src``
(pure Python, nothing to build).  Workloads, and the layer each one loads:

    certify-ideal    opkit certify, Buchberger-bound (groebner, planner)
    certify-expand   opkit certify, expansion-bound (certify, poly kernels)
    reduce-td        reduce sessions on truncated derivatives (backend, reducer)
    symmetry-enum    opkit symmetry on small dense instances (symmetry, backend)

``--trace 0`` runs the workload in a closed loop, one job at a time, for
``--seconds`` (ending on a whole round of the workload's job mix) and
reports the end-to-end metrics.

Job times are reported at nominal machine speed.  On the shared 2-CPU VM
the benchmark was built on, Python runs in a fast and a slow state that
switch every few seconds and are about 1.5x apart, so raw run times of the
same work spread by 10-20 %.  The worker therefore times a fixed loop of
exact arithmetic that does not use opkit before every job and after the
last one, and each job's time is multiplied by ``NOMINAL_REFERENCE_S`` over
the mean of the loop times just before and just after it.  Set-up times are
scaled by the loops timed at the start and the end of set-up.  An opkit change
moves the job times and not the loop, so it still shows in full.  The raw
wall-clock figures and the mean speed factor are printed in the summary
line and kept in the results file.

``--trace 1`` runs a fixed number of jobs twice, untraced and traced, each
in a fresh process, and reports the per-layer metrics of the traced run; its
counts repeat exactly for a given seed, and its times are scaled to nominal
speed in the same way.

Each run happens in fresh single-threaded worker processes (``worker.py``)
with ``PYTHONHASHSEED=0``; ``OPKIT_PURE_PYTHON`` and ``OPKIT_TERM_CAP`` are passed
through as found and recorded.  Details go to ``perfbench/results/``; the
last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_RUNS = 3          # set-ups per run; setup_s is their median
NOMINAL_REFERENCE_S = 0.013  # reference loop time at nominal speed: about
                             # its time on a 2-CPU x86-64 VM, Python 3.11
DEADLINE_S = 170        # a run must end within 180 s
TAIL_BEYOND = 10        # jobs that must lie beyond the tail percentile

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


class HarnessError(Exception):
    pass


def worker(args, extra: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed),
           "--launched-ns", str(time.monotonic_ns())] + extra
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker {extra} did not finish in time") from None
    if proc.returncode != 0:
        raise HarnessError(f"worker {extra} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def nominal_ms(run: dict) -> list[float]:
    """Job times scaled to nominal speed, each by the loops around it."""
    ref = run["reference_s"]
    return [ms * NOMINAL_REFERENCE_S * 2 / (before + after)
            for ms, before, after in zip(run["latencies_ms"], ref, ref[1:])]


def nominal_setup_s(run: dict) -> float:
    before, after = run["setup_reference_s"]
    return run["setup_s"] * NOMINAL_REFERENCE_S * 2 / (before + after)


def end_to_end(args, deadline: float) -> tuple[dict, dict, dict]:
    setups = [worker(args, ["--setup-only"], deadline)
              for _ in range(SETUP_RUNS - 1)]
    run = worker(args, ["--seconds", str(args.seconds)], deadline)
    setups.append(run)
    raw = run["latencies_ms"]
    latencies = nominal_ms(run)
    tail_ms, tail_pct = tail(latencies)
    metrics = {
        "jobs_per_s": (len(latencies) / (sum(latencies) / 1e3), "1/s"),
        "job_p50_ms": (statistics.median(latencies), "ms"),
        "job_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(map(nominal_setup_s, setups)), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    summary = {"failed_share": run["failed"] / run["attempted"],
               "jobs": run["attempted"], "tail_percentile": tail_pct,
               "raw_setup_s": [s["setup_s"] for s in setups],
               "speed_factor": sum(latencies) / sum(raw),
               "raw_jobs_per_s": len(raw) / (sum(raw) / 1e3),
               "raw_job_p50_ms": statistics.median(raw),
               "raw_job_tail_ms": tail(raw)[0]}
    return metrics, summary, run


def per_layer(args, deadline: float) -> tuple[dict, dict, dict]:
    jobs = ["--jobs", str(WORKLOADS[args.workload].trace_jobs)]
    plain = worker(args, jobs, deadline)
    run = worker(args, jobs + ["--trace"], deadline)
    factor = sum(nominal_ms(run)) / sum(run["latencies_ms"])
    layers = {name: value * factor if name.endswith("_s") else value
              for name, value in run.pop("layers").items()}
    layers["trace.overhead_share"] = 1 - (
        sum(nominal_ms(plain)) / sum(nominal_ms(run)))
    metrics = {}
    for name, value in layers.items():
        unit = ("s" if name.endswith("_s") else
                "share" if name.endswith(("_share", "_density")) else "count")
        metrics[name] = (value, unit)
    if plain["digest"] != run["digest"]:
        run["problems"].append("traced and untraced outputs differ")
        run["failed"] = max(run["failed"], 1)
    run["attempted"] += plain["attempted"]
    run["failed"] += plain["failed"]
    run["problems"] += plain["problems"]
    summary = {"failed_share": run["failed"] / run["attempted"],
               "jobs": run["attempted"], "spans_file": run["spans_file"],
               "speed_factor": factor}
    return metrics, summary, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "opkit", "__init__.py")):
        print("run.py: run from the root of an opkit checkout "
              "(src/opkit not found)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, summary, run = measure(args, deadline)
    except HarnessError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for problem in run["problems"]:
        print(f"check failed: {problem}")
    print("env " + json.dumps(run["env"], sort_keys=True))
    print("summary " + json.dumps(summary, sort_keys=True))
    result = {
        "correct": run["failed"] == 0 and not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    out = os.path.join(HERE, "results",
                       f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "summary": summary, "env": run["env"],
                   "latencies_ms": run["latencies_ms"]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

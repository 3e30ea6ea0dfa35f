"""Benchmark command for qwmetric.

    python3 perfbench/run.py --workload {queries,axioms,inversion,audit}
        --seed N --seconds S --trace {0,1}

Runs whole rounds of the workload's fixed job list, each round in a fresh
single-threaded process (worker.py) on the CPU that is fastest just before
it starts, until the next round would end after S seconds, and never fewer
than three rounds.  Figures are medians over the rounds.  Job times, and
set-up, are reported at the nominal speed: each is divided by how much
slower than nominal a fixed numpy reference, timed between every two jobs,
ran around it (see speed_factors).  With --trace 0 the last line of output
is a JSON object with the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run.  The line before it carries the
environment, the round count, the per-round times as measured and the
speed factors, and the whole result is also written to
perfbench/out/result-<workload>-s<seed>-t<trace>.json.
"""

import os

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("queries", "axioms", "inversion", "audit")
MIN_ROUNDS = 3
# rounds stop early enough that the command ends within 180 s
DEADLINE_S = 150.0
ROUND_TIMEOUT_S = 170.0
# median duration of worker.speed_reference on the machine the benchmark was
# built on, in its usual speed state (one BLAS thread)
REFERENCE_NOMINAL_S = 0.0088
# reference timings on each side of a job that make up its speed factor
WINDOW = 3


def fastest_cpu():
    """The usable CPU that runs a short probe of small numpy products
    fastest right now, or None when there is only one.

    The two CPUs of a shared virtual machine are slowed by other tenants,
    often one at a time, by up to 1.5x for seconds to minutes, and a
    process stays on the CPU it starts on; running each round on the
    faster CPU keeps a slowdown of one CPU out of the figures."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    import numpy as np

    a = np.arange(256.0).reshape(16, 16) * (1 + 1j) / 256
    best = {}
    try:
        for cpu in cpus * 2:
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            for _ in range(100):
                np.linalg.norm(a @ a @ a, 2)
            best[cpu] = min(best.get(cpu, float("inf")), time.perf_counter() - start)
    finally:
        os.sched_setaffinity(0, cpus)
    return min(best, key=best.get)


def run_round(workload: str, seed: int, index: int, trace: bool, timeout: float) -> dict:
    """One round in a fresh worker process, pinned to the faster CPU."""
    cpus = os.sched_getaffinity(0)
    cpu = fastest_cpu()
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})  # the worker inherits it
    spawned = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
           "--round", str(index), "--spawned-at", repr(spawned)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    finally:
        os.sched_setaffinity(0, cpus)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"round {index} of {workload} exited {proc.returncode}")
    return {**json.loads(proc.stdout.strip().splitlines()[-1]), "cpu": cpu}


def speed_factors(round_: dict) -> list:
    """How much slower than nominal the host ran around each job: the mean
    duration of the speed reference over the WINDOW timings just before
    the job and the WINDOW just after it, over the nominal duration.

    The shared host switches this process between speeds up to 1.7x apart,
    in stretches from milliseconds to minutes, and the reference slows and
    speeds up with the program (see README).  A mean, unlike a median,
    follows the share of time spent in each state, as a job's time does."""
    ref = round_["reference_s"]  # ref[j] runs just before job j, ref[j + 1] just after
    return [statistics.fmean(ref[max(0, j - WINDOW + 1):j + WINDOW + 1]) / REFERENCE_NOMINAL_S
            for j in range(len(ref) - 1)]


def scaled(round_: dict) -> dict:
    """The round's set-up and job times at the nominal speed.  Set-up is
    divided by the factor of the WINDOW reference timings that follow it."""
    setup_factor = statistics.fmean(round_["reference_s"][:WINDOW]) / REFERENCE_NOMINAL_S
    return {
        **round_,
        "setup_s": round_["setup_s"] / setup_factor,
        "latencies_s": [t / f for t, f in zip(round_["latencies_s"], speed_factors(round_))],
    }


def end_to_end(rounds) -> dict:
    jobs = len(rounds[0]["latencies_s"])
    rounds = [scaled(r) for r in rounds]
    per_job = sorted(statistics.median(r["latencies_s"][j] for r in rounds) for j in range(jobs))
    figures = {
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        # the time to run the job list once: the sum of its job times
        "wall_s": (statistics.median(sum(r["latencies_s"]) for r in rounds), "s"),
        "job_p50_ms": (1000.0 * statistics.median(per_job), "ms"),
        # the highest percentile that still has ten jobs beyond it
        "job_tail_ms": (1000.0 * per_job[jobs - 11], "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()}


def per_layer(rounds):
    """Counts and sizes from the rounds (which must agree exactly) and the
    median self time of each function."""
    import tracing

    metrics, repeat = {}, True
    for name, unit, _ in tracing.metric_units():
        values = [r["trace"][name] for r in rounds]
        if unit == "s":
            value = statistics.median(values)
        else:
            value = values[0]
            repeat = repeat and all(v == value for v in values)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, repeat


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "qwmetric", "__init__.py")):
        print(f"perfbench: no qwmetric sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    start = time.monotonic()
    rounds = []
    try:
        while True:
            timeout = ROUND_TIMEOUT_S - (time.monotonic() - start)
            rounds.append(run_round(args.workload, args.seed, len(rounds), bool(args.trace), timeout))
            elapsed = time.monotonic() - start
            next_end = elapsed + elapsed / len(rounds)
            if next_end > DEADLINE_S or (len(rounds) >= MIN_ROUNDS and next_end > args.seconds):
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(r["latencies_s"]) for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    for f in failures:
        print(f"perfbench: FAILED {f['job']}: {f['check']}", file=sys.stderr)
    if args.trace:
        metrics, repeat = per_layer(rounds)
    else:
        metrics, repeat = end_to_end(rounds), None
    jobs = len(rounds[0]["latencies_s"])
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {**rounds[0]["env"], "cores_usable": len(os.sched_getaffinity(0)), "seed": args.seed},
        "rounds": len(rounds),
        "elapsed_s": time.monotonic() - start,
        "jobs_per_round": jobs,
        "tail_percentile": 100.0 * (jobs - 10) / jobs,
        "measured_wall_s_per_round": [sum(r["latencies_s"]) for r in rounds],
        "measured_setup_s_per_round": [r["setup_s"] for r in rounds],
        "speed_factor_per_round": [statistics.fmean(speed_factors(r)) for r in rounds],
        "peak_rss_mb_per_round": [r["peak_rss_mb"] for r in rounds],
        "cpu_per_round": [r["cpu"] for r in rounds],
        "trace_counts_repeat": repeat,
    }
    result = {
        "correct": not any(f["wrong"] for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump({**info, **result, "failures": failures, "jobs": rounds[0]["jobs"],
                   "latencies_s_per_round": [r["latencies_s"] for r in rounds],
                   "reference_s_per_round": [r["reference_s"] for r in rounds]}, fh, indent=1)
    if repeat is False:
        print("perfbench: traced rounds disagree on calls or sizes", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

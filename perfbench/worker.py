"""One round of one workload, in a fresh process.

Started by run.py.  Pins BLAS to one thread before numpy loads, imports
qwmetric from the checkout's ``src``, builds the workload's inputs, runs its
fixed job list once (timing each job, and the speed reference before the
first job and after every job), then checks every output against the
oracles and prints one JSON line with the round's figures.

Usage: python3 perfbench/worker.py --workload W --seed N --round R
           --spawned-at T [--trace]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def speed_reference():
    """A callable that runs a fixed mix of the operations qwmetric spends
    its time in (small complex products and norms, Hermitian eigensolves,
    SVDs and interpreter-level loops) and returns its duration in seconds.

    Its inputs are fixed, not drawn from the seed, and it calls numpy
    only, so a change to qwmetric cannot change its cost: what changes its
    duration is the speed the host gives this process at that moment."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    m = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    h = (a + a.conj().T) / 2

    def reference() -> float:
        start = time.perf_counter()
        for _ in range(12):
            np.linalg.norm(a @ a, 2)
            np.linalg.eigh(h)
            np.linalg.svd(m)
            table = {}
            for i in range(300):
                table[i] = i * 1.5
        return time.perf_counter() - start

    reference()  # first call loads LAPACK paths; not recorded
    return reference


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() when the parent started us")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import qwmetric
    import qwmetric.cli  # noqa: F401  (the package imports every other layer)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    import workloads

    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        jobs = workloads.build(qwmetric, args.workload, args.seed, workdir)
        first = time.monotonic()
        reference = speed_reference()
        outputs, latencies, references = [], [], [reference()]
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = i
            start = time.perf_counter()
            try:
                out, error = job.run(), None
            except Exception as exc:  # a job that raises counts as failed
                out, error = None, f"raised {type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - start)
            outputs.append((out, error))
            references.append(reference())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = []
    for job, (out, error) in zip(jobs, outputs):
        if error is None:
            try:
                error = job.check(out)
            except Exception as exc:  # a check that cannot read the output
                error = f"check raised {type(exc).__name__}: {exc}"
            wrong = error is not None
        else:
            wrong = False
        if error is not None:
            failures.append({"job": job.name, "check": error, "wrong": wrong})

    result = {
        "setup_s": first - args.spawned_at,
        "jobs": [job.name for job in jobs],
        "latencies_s": latencies,
        "reference_s": references,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        result["trace"] = tracer.report()
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}-s{args.seed}-r{args.round}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

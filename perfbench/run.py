"""ntcentral benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload coarse-tables --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in a worker process
(``worker.py``) that imports ntcentral from the checkout's ``src/``, with the
reference cache in a fresh directory under ``.perfbench/``.  Set-up is timed
in that worker and in ``SETUP_PROBES`` more processes that only set up;
``setup_s`` is their median.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, holding the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  The full result, with the trace spans, is also written to
``.perfbench/results/``.
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("coarse-tables", "fine-grid", "cli-figures")
SETUP_PROBES = 2
TIME_LIMIT_S = 170  # the whole run, workers included


def _worker(args, workdir: str, name: str, setup_only: bool, deadline: float) -> dict:
    """Run one worker process to completion and return its result object."""
    workdir = os.path.join(workdir, name)
    os.makedirs(os.path.join(workdir, "tmp"))
    result = os.path.join(workdir, "result.json")
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        NTCENTRAL_CACHE_DIR=os.path.join(workdir, "cache"),
        TMPDIR=os.path.join(workdir, "tmp"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
        "--src", os.path.join(ROOT, "src"),
        "--result", result,
    ]
    if setup_only:
        cmd.append("--setup-only")
    # subprocess.run kills the worker and waits for it on timeout
    timeout = max(deadline - time.monotonic(), 1.0)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout, stdout=sys.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {name} exited with code {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ntcentral benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(ROOT, "src", "ntcentral", "__init__.py")):
        print(f"error: no ntcentral package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    out = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(out, f"work-{os.getpid()}")
    try:
        probes = [_worker(args, workdir, f"setup-{i}", True, deadline) for i in range(SETUP_PROBES)]
        main_result = _worker(args, workdir, "main", False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_samples = [p["setup_s"] for p in probes] + [main_result["setup_s"]]
    setup_s = statistics.median(setup_samples)
    if args.trace:
        metrics = {k: _metric(v, u) for k, (v, u) in main_result["layers"].items()}
    else:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "scaled_wall_s": _metric(main_result["scaled_wall_s"], "s"),
            "peak_rss_mib": _metric(main_result["peak_rss_mib"], "MiB"),
        }
    problems = main_result["problems"]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    summary = {
        "correct": not problems,
        "attempted": main_result["attempted"],
        "failed": main_result["failed"],
        "metrics": metrics,
    }

    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        raw = [p["setup_raw_s"] for p in probes] + [main_result["setup_raw_s"]]
        json.dump(
            {**summary, "setup_samples_s": setup_samples, "setup_raw_samples_s": raw, "worker": main_result},
            fh,
            indent=1,
        )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

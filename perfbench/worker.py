"""One benchmark workload in its own process; started by ``run.py``.

The parent points ``PYTHONPATH`` at the checkout's ``src/`` and
``NTCENTRAL_CACHE_DIR`` at a fresh directory under ``--workdir``.  The worker
times its set-up (import, config parse, cache warming), then runs whole
rounds until the next one would end after ``--seconds``.  With ``--trace 1``
it first runs untraced rounds for half the time, then traced rounds for the
other half.  Every time is also scaled to the reference host speed (see
``speed``).  It writes its measurements as one JSON object to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time


def run_rounds(workload, workdir: str, seconds: float) -> list:
    """Whole rounds, at least one, while the next is expected to end in time."""
    rounds = []
    start = time.perf_counter()
    while True:
        directory = os.path.join(workdir, "round")
        rounds.append(workload.run_round(directory))
        shutil.rmtree(directory)
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True, help="the checkout's src/ directory")
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cache = os.environ.get("NTCENTRAL_CACHE_DIR", "")
    if not os.path.realpath(cache).startswith(os.path.realpath(args.workdir) + os.sep):
        print(f"error: NTCENTRAL_CACHE_DIR={cache!r} is not under the work directory", file=sys.stderr)
        return 2

    start = time.perf_counter()
    import ntcentral
    import speed
    import workloads

    src = os.path.realpath(args.src) + os.sep
    if not os.path.realpath(ntcentral.__file__).startswith(src):
        print(f"error: imported {ntcentral.__file__}, not the package under {args.src}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup()
    setup_s = time.perf_counter() - start
    workload.probe = speed.Probe(workload.probe_cells, max(speed.MIN_PROBE_S, speed.PROBE_SHARE * setup_s))
    result = {"setup_raw_s": setup_s, "setup_s": setup_s * workload.probe.reference / workload.probe.last}

    if not args.setup_only:
        budget = args.seconds / 2 if args.trace else args.seconds
        rounds = run_rounds(workload, args.workdir, budget)
        result["scaled_wall_s"] = statistics.median(r.scaled_seconds for r in rounds)
        if args.trace:
            import tracing

            with tracing.Tracer() as tracer:
                traced = run_rounds(workload, args.workdir, budget)
            layers = {k: list(v) for k, v in tracer.metrics(len(traced)).items()}
            per_round = len(traced)
            layers["cli.bytes_written"] = [sum(r.bytes_written for r in traced) / per_round, "bytes"]
            layers["harness.cfl_warnings"] = [sum(r.cfl_warnings for r in traced) / per_round, "count"]
            layers["trace.overhead_s"] = [
                statistics.median(r.scaled_seconds for r in traced) - result["scaled_wall_s"],
                "s",
            ]
            result["layers"] = layers
            result["spans"] = tracer.spans()
            rounds += traced
        result["round_s"] = [r.seconds for r in rounds]
        result["round_scaled_s"] = [r.scaled_seconds for r in rounds]
        result["attempted"] = sum(r.attempted for r in rounds)
        result["failed"] = sum(r.failed for r in rounds)
        result["problems"] = [p for r in rounds for p in r.problems]
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

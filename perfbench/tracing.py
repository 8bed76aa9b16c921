"""Per-layer timing for the traced run.

The tracer replaces the module and class attributes through which
ntcentral's layers call each other with timing wrappers, aggregates calls,
total time and self time per layer in memory, and puts the originals back
when it is closed.  Only the traced run installs it: the runs that give the
end-to-end metrics execute the program unwrapped.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

from ntcentral import cli, harness, schemes

# Layer name -> the attributes its callers look it up through.  schemes and
# harness import these names into their own namespaces, and cli imports
# harness's, so each binding that a caller uses is wrapped.
LAYERS = {
    "kernels.correlate_band": [(schemes, "correlate_band")],
    "limiters.slopes_of_extended": [(schemes, "slopes_of_extended")],
    "core.extend_array": [(schemes, "extend_array")],
    "schemes.half_step": [(schemes, "half_step")],
    "schemes.staggered_predictor": [(schemes, "staggered_predictor")],
    "schemes.nonstaggered_projection": [(schemes, "nonstaggered_projection")],
    "schemes.stepper_init": [(schemes.Stepper, "__init__")],
    "harness.flux_speed_estimate": [(harness, "flux_speed_estimate")],
    "harness.MonitorLog.record": [(harness.MonitorLog, "record")],
    # no metric of its own: it marks the solver runs inside compute_reference
    # (a miss) and inside cli.main (not CLI self time)
    "harness.run_simulation": [(harness, "run_simulation"), (cli, "run_simulation")],
    "harness.resolve_time_ratio": [(harness, "resolve_time_ratio"), (cli, "resolve_time_ratio")],
    "models.make_model": [(harness, "make_model"), (cli, "make_model")],
    "core.init_cell_averages": [(harness, "init_cell_averages")],
    "cli.main": [(cli, "main")],
}
STEP = "schemes.step"
REFERENCE = "harness.compute_reference"

NS_PER_CELL_STEP = (
    "kernels.correlate_band",
    "harness.flux_speed_estimate",
    "limiters.slopes_of_extended",
    "core.extend_array",
    "schemes.half_step",
    "schemes.staggered_predictor",
    "schemes.nonstaggered_projection",
    STEP,
    "harness.MonitorLog.record",
)
CALLS_PER_STEP = ("kernels.correlate_band", "limiters.slopes_of_extended")
SECONDS_PER_ROUND = (
    REFERENCE,
    "models.make_model",
    "schemes.stepper_init",
    "harness.resolve_time_ratio",
    "core.init_cell_averages",
)


class Tracer:
    """Timing wrappers on ntcentral's layer boundaries, as a context manager.

    A layer's self time is its total time minus the time of the timed calls
    made inside it.  ``counts`` holds the steps and cell-steps taken and the
    reference-cache hits and misses.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.child_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list = []
        self._saved: list = []

    def _timed(self, name: str, fn):
        calls, total, child, stack = self.calls, self.total_ns, self.child_ns, self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                stack.pop()
                calls[name] += 1
                total[name] += elapsed
                child[name] += frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return timed

    def _step(self, fn):
        counts, timed = self.counts, self._timed(STEP, fn)

        @functools.wraps(fn)
        def step(stepper, values, dt):
            counts["steps"] += 1
            counts["cell_steps"] += stepper.grid.cells
            return timed(stepper, values, dt)

        return step

    def _reference(self, fn):
        calls, counts, timed = self.calls, self.counts, self._timed(REFERENCE, fn)

        @functools.wraps(fn)
        def compute_reference(*args, **kwargs):
            runs = calls["harness.run_simulation"]
            try:
                return timed(*args, **kwargs)
            finally:
                # a hit loads the cached array without running the solver
                miss = calls["harness.run_simulation"] > runs
                counts["reference_misses" if miss else "reference_hits"] += 1

        return compute_reference

    def _patch(self, owner, attr: str, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        for name, sites in LAYERS.items():
            for owner, attr in sites:
                self._patch(owner, attr, self._timed(name, getattr(owner, attr)))
        self._patch(schemes.Stepper, "step", self._step(schemes.Stepper.step))
        for owner in (harness, cli):
            self._patch(owner, "compute_reference", self._reference(owner.compute_reference))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def spans(self) -> dict:
        """Aggregated spans: calls, total and self seconds per layer."""
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total_ns[name] / 1e9,
                "self_s": (self.total_ns[name] - self.child_ns[name]) / 1e9,
            }
            for name in sorted(self.calls)
        }

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics over ``rounds`` traced rounds, as {name: (value, unit)}."""
        steps = max(self.counts["steps"], 1)
        cell_steps = max(self.counts["cell_steps"], 1)
        out = {}
        for name in NS_PER_CELL_STEP:
            out[f"{name}.ns_per_cell_step"] = (self.total_ns[name] / cell_steps, "ns")
        out[f"{STEP}.self_ns_per_cell_step"] = (
            (self.total_ns[STEP] - self.child_ns[STEP]) / cell_steps,
            "ns",
        )
        for name in CALLS_PER_STEP:
            out[f"{name}.calls_per_step"] = (self.calls[name] / steps, "calls/step")
        for name in SECONDS_PER_ROUND:
            out[f"{name}.s"] = (self.total_ns[name] / 1e9 / rounds, "s")
        out[f"{REFERENCE}.hits"] = (self.counts["reference_hits"] / rounds, "count")
        out[f"{REFERENCE}.misses"] = (self.counts["reference_misses"] / rounds, "count")
        out["cli.main.self_s"] = (
            (self.total_ns["cli.main"] - self.child_ns["cli.main"]) / 1e9 / rounds,
            "s",
        )
        return out

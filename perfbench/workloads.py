"""The benchmark's workloads: seeded configs, one timed round, its checks.

Each workload derives its configs from ntcentral's packaged presets and a
seed, hands only those configs to the program, and times whole rounds of the
same operations.  Only the calls into the program are timed; the checks on
their outputs (see ``checks``) run outside the timed part.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
import warnings
from dataclasses import dataclass, field

from ntcentral import cli, harness
from ntcentral.errors import SolverError
from ntcentral.harness import SchemeSpec

import checks
import speed

CACHE_ENV = "NTCENTRAL_CACHE_DIR"

TABLE_PRESETS = (
    "table-arrhenius",
    "table-euler",
    "table-garz",
    "table-keyfitz-kranzer",
    "table-multilane",
)
FIG_PRESETS = ("fig-arrhenius", "fig-euler", "fig-garz", "fig-keyfitz-kranzer")

# Seeded counterparts of the table presets' smooth initial data: {a} scales
# every amplitude, {p} shifts the phase.  Each profile keeps whole periods on
# the periodic domain [-1, 1] and stays inside its model's range.
SMOOTH_DATA = {
    "arrhenius-sine": ("0.5+0.4*{a}*sin(pi*(x-{p}))",),
    "kk-sine": (
        "-0.1-0.2*{a}*sin(pi*(x-{p}))",
        "0.2+0.1*{a}*sin(pi*(x-{p}))",
    ),
    "multilane-sine": (
        "0.5+0.5*{a}*sin(pi*(x-{p}))",
        "0.25+0.25*{a}*cos(2*pi*(x-{p}))",
    ),
    "euler-sine": (
        "0.2+0.1*{a}*sin(pi*(x-{p}))",
        "0.4+0.3*{a}*cos(pi*(x-{p}))/pi",
    ),
    "garz-sine": (
        "0.3+0.2*{a}*sin(pi*(x-{p}))",
        "(0.3+0.2*{a}*sin(pi*(x-{p})))*(1.9+1.25*{a}*sin(pi*(x-{p})))",
    ),
}

# The figure presets' discontinuous data with every jump moved by {s}, a
# whole number of level-0 cells, so jumps stay on cell interfaces.
JUMP_DATA = {
    "arrhenius-box": ("where(abs(x-({s}))<=0.25,1.0,0.2)",),
    "kk-box": (
        "where((x>1.0+({s}))&(x<3.0+({s})),0.25,0.0)",
        "where((x>1.0+({s}))&(x<3.0+({s})),1.0,0.0)",
    ),
    "euler-jump": ("where(x<=({s}),0.5,1.5)", "where(x<=({s}),-1.0,1.0)"),
    "garz-jump": ("0.05", "where(x<=({s}),7.0/400.0,1.0/25.0)"),
}

CFL_WARNING = "CFL estimate exceeded"


def smooth_data(name: str, rng: random.Random) -> list:
    """Expressions of one preset's smooth data with a seeded amplitude and phase."""
    a = round(rng.uniform(0.9, 1.0), 4)
    p = round(rng.uniform(-0.5, 0.5), 4)
    return [t.format(a=a, p=p) for t in SMOOTH_DATA[name]]


def cells_of(exp_doc: dict, level: int) -> "tuple[int, float]":
    """Cell count and spacing of a preset experiment at a refinement level."""
    lo, hi = exp_doc["domain"]
    cells = round((hi - lo) / (exp_doc["base_dx"] * 2.0**-level))
    return cells, (hi - lo) / cells


@dataclass
class Round:
    """What one round of a workload did."""

    seconds: float = 0.0  # time inside the program's calls
    scaled_seconds: float = 0.0  # the same at the reference host speed (see ``speed``)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    bytes_written: int = 0
    cfl_warnings: int = 0


class Workload:
    """Seeded inputs for one workload; ``setup`` once, then whole rounds.

    ``tiny`` shrinks the inputs so a round takes about a second, for the
    benchmark's self-test.  The timed runs always use the full size.
    """

    name = ""
    probe_cells = 160  # grid size of the speed probe's sweep (see ``speed``)

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.probe = None

    def setup(self):
        raise NotImplementedError

    def run_round(self, directory: str) -> Round:
        """One round in a fresh ``directory``; CFL warnings are counted, not shown."""
        os.makedirs(directory)
        if self.probe is None:
            self.probe = speed.Probe(self.probe_cells)
        rnd = Round()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self._round(rnd, directory)
        rnd.cfl_warnings = sum(str(w.message).startswith(CFL_WARNING) for w in caught)
        return rnd

    def _round(self, rnd: Round, directory: str):
        raise NotImplementedError

    def _call(self, rnd: Round, fn, *args, **kwargs):
        """Time one operation; a solver error counts it as failed and gives None."""
        rnd.attempted += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except SolverError:
            rnd.failed += 1
            return None
        finally:
            seconds = time.perf_counter() - start
            rnd.seconds += seconds
            rnd.scaled_seconds += self.probe.scaled(seconds)


class CoarseTables(Workload):
    """Convergence studies of all seven table experiments at coarse levels.

    Every round points the reference cache at an empty directory, so each
    study computes its reference (a cache miss) before its coarse runs.
    """

    name = "coarse-tables"
    LEVELS = [0, 1, 2, 3]  # 40 to 320 cells
    REFERENCE_LEVEL = 5  # 1280 cells

    def setup(self):
        rng = random.Random(self.seed)
        self.studies = []
        for preset in TABLE_PRESETS:
            doc = cli.load_preset(preset)
            for e in doc["experiments"]:
                e["levels"] = self.LEVELS
                e["reference_level"] = self.REFERENCE_LEVEL
                e["initial_data"] = smooth_data(e["initial_data"], rng)
            for exp in cli.parse_config(doc, preset).experiments:
                label = f"{preset}/{exp.name}" if exp.name else preset
                self.studies.append((label, exp))
        if self.tiny:
            self.studies = self.studies[:1]

    def _round(self, rnd, directory):
        cache = os.path.join(directory, "cache")
        os.environ[CACHE_ENV] = cache
        done = 0
        for label, exp in self.studies:
            report = self._call(rnd, harness.convergence_study, exp)
            if report is None:
                continue
            done += 1
            errors = {s: [(r[0], r[2]) for r in rows] for s, rows in report.rows.items()}
            rnd.problems += checks.rate_problems(label, errors)
        cached = os.listdir(cache) if os.path.isdir(cache) else []
        if sum(f.startswith("ref-") for f in cached) != done:
            rnd.problems.append(
                f"{done} studies left {len(cached)} cache entries in {cache}; "
                "expected one cold reference each"
            )


class FineGrid(Workload):
    """A fixed number of steps at the 20480-cell reference level of each table model.

    Each model runs under its reference scheme from seeded smooth periodic data;
    the final state must keep its conserved masses and its range.
    """

    name = "fine-grid"
    probe_cells = 20480

    def setup(self):
        self.level, steps = (4, 8) if self.tiny else (9, 40)
        rng = random.Random(self.seed)
        self.runs = []
        for preset in TABLE_PRESETS:
            doc = cli.load_preset(preset)
            e = doc["experiments"][0]
            doc["experiments"] = [e]
            cells, dx = cells_of(e, self.level)
            e["levels"] = [self.level]
            e["reference_level"] = self.level + 1  # never computed
            e["T"] = steps * (e["time_ratio"] * dx)
            e["initial_data"] = smooth_data(e["initial_data"], rng)
            exp = cli.parse_config(doc, preset).experiments[0]
            # GARZ convolves a derived field and only supports the v1 slopes
            spec = SchemeSpec("nt", "v1" if e["model"] == "garz" else "v2")
            self.runs.append((preset, exp, spec, e, cells, dx))
        self._initial = {}

    def _round(self, rnd, directory):
        for preset, exp, spec, e, cells, dx in self.runs:
            out = self._call(rnd, harness.run_simulation, exp, self.level, spec, record=False)
            if out is None:
                continue
            final = out[0].values
            if preset not in self._initial:
                self._initial[preset] = checks.cell_averages(e["initial_data"], *e["domain"], cells)
            label = f"{preset}/{spec.name}"
            rnd.problems += checks.range_problems(label, e["model"], final)
            rnd.problems += checks.mass_problems(label, e["model"], self._initial[preset], final, dx)


@dataclass
class _Figure:
    preset: str
    path: str
    model: str
    schemes: list
    steps: int
    t_final: float


class CliFigures(Workload):
    """``ntcentral run`` then ``ntcentral compare`` on every figure preset.

    Horizons are cut to a fixed number of level-0 steps, the last one clamped
    to land on T, and references to at most two levels above level 0.  The
    references are computed during set-up, so every compare hits the cache.
    """

    name = "cli-figures"

    def setup(self):
        steps, refine = (8, 1) if self.tiny else (40, 2)
        rng = random.Random(self.seed)
        self.figures = []
        for preset in FIG_PRESETS:
            doc = cli.load_preset(preset)
            e = doc["experiments"][0]
            level = e.get("level", 0)
            _, dx = cells_of(e, level)
            shift = rng.randint(-3, 3) * dx
            e["initial_data"] = [t.format(s=shift) for t in JUMP_DATA[e["initial_data"]]]
            e["T"] = (steps - 0.5) * (e["time_ratio"] * dx)
            e["reference_level"] = min(e["reference_level"], level + refine)
            path = os.path.join(self.workdir, f"{preset}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            exp = cli.parse_config(doc, path).experiments[0]
            harness.compute_reference(exp, harness.resolve_time_ratio(exp))
            schemes = [s.name for s in exp.schemes]
            self.figures.append(_Figure(doc["name"], path, e["model"], schemes, steps, e["T"]))

    def _round(self, rnd, directory):
        for fig in self.figures:
            ok = {}
            for command in ("run", "compare"):
                argv = [command, "--config", fig.path, "--out", directory]
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self._call(rnd, cli.main, argv)
                ok[command] = code == 0
                if code not in (0, None):
                    rnd.failed += 1
            stem = os.path.join(directory, fig.preset)
            if ok["run"]:
                for scheme in fig.schemes:
                    label = f"{fig.preset}/{scheme}"
                    rnd.problems += checks.monitor_problems(
                        label, f"{stem}-{scheme}-monitor.csv", fig.steps, fig.t_final
                    )
                    rnd.problems += checks.snapshot_problems(label, f"{stem}-{scheme}.csv", fig.model)
            if ok["compare"]:
                rnd.problems += checks.ordering_problems(fig.preset, f"{stem}.csv", fig.model)
        rnd.bytes_written = sum(
            os.path.getsize(os.path.join(directory, f)) for f in os.listdir(directory)
        )


WORKLOADS = {w.name: w for w in (CoarseTables, FineGrid, CliFigures)}

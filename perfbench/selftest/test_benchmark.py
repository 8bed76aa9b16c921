"""Self-test of the benchmark: tiny rounds pass, corrupted outputs are caught.

    python3 -m pytest perfbench/selftest -q

Each workload runs one round at a tiny size.  The corruption tests wrap the
program's entry point so that it hands back a slightly wrong output, and
require the round's checks to report it.
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from ntcentral import cli, harness, schemes

import speed
import tracing
import workloads

from conftest import ROOT


def tiny_round(name, tmp_path, seed=3):
    workload = workloads.WORKLOADS[name](seed, str(tmp_path / "work"), tiny=True)
    os.makedirs(workload.workdir)
    workload.setup()
    return workload, workload.run_round(str(tmp_path / "round"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_round_passes_its_checks(name, tmp_path):
    _, rnd = tiny_round(name, tmp_path)
    assert rnd.attempted > 0
    assert rnd.failed == 0
    assert rnd.problems == []
    assert rnd.seconds > 0.0
    assert rnd.scaled_seconds > 0.0


def test_same_seed_gives_same_configs(tmp_path):
    a = workloads.WORKLOADS["coarse-tables"](7, str(tmp_path), tiny=True)
    b = workloads.WORKLOADS["coarse-tables"](7, str(tmp_path), tiny=True)
    c = workloads.WORKLOADS["coarse-tables"](8, str(tmp_path), tiny=True)
    for w in (a, b, c):
        w.setup()
    assert a.studies[0][1] == b.studies[0][1]
    assert a.studies[0][1] != c.studies[0][1]


def test_scaled_time_divides_by_the_unit_times_around_the_operation(monkeypatch):
    unit_times = iter([0.002, 0.004, 0.001])
    monkeypatch.setattr(speed, "unit_seconds", lambda unit, min_seconds: next(unit_times))
    probe = speed.Probe(160)
    reference = speed.REFERENCE_UNIT_S[160]
    # the mean unit time around the first operation is 3 ms, around the second 2.5 ms
    assert probe.scaled(3.0) == pytest.approx(3.0 * reference / 0.003)
    assert probe.scaled(1.0) == pytest.approx(1.0 * reference / 0.0025)


def test_swapped_scheme_rows_fail_the_rate_check(tmp_path, monkeypatch):
    study = harness.convergence_study

    def swapped(exp, *args, **kwargs):
        report = study(exp, *args, **kwargs)
        rows = report.rows
        rows["lxf1"], rows["nt-v2"] = rows["nt-v2"], rows["lxf1"]
        return report

    monkeypatch.setattr(harness, "convergence_study", swapped)
    _, rnd = tiny_round("coarse-tables", tmp_path)
    assert any("lxf1" in p for p in rnd.problems)
    assert any("not below lxf1" in p for p in rnd.problems)


def test_one_cell_mass_shift_fails_the_conservation_check(tmp_path, monkeypatch):
    run = harness.run_simulation

    def shifted(exp, level, *args, **kwargs):
        state, log = run(exp, level, *args, **kwargs)
        grid = exp.grid_at(level)
        state.values[0, grid.cells // 3] += 1e-9 / grid.dx  # cell mass + 1e-9
        return state, log

    monkeypatch.setattr(harness, "run_simulation", shifted)
    _, rnd = tiny_round("fine-grid", tmp_path)
    assert len([p for p in rnd.problems if "mass of" in p]) == 5


def _corrupting_main(main, edit):
    def corrupted(argv):
        code = main(argv)
        edit(argv[0], argv[argv.index("--out") + 1], argv[argv.index("--config") + 1])
        return code

    return corrupted


def _swap_columns(path, a, b):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    i, j = header.index(a), header.index(b)
    out = lines[:1]
    for line in lines[1:]:
        cells = line.split(",")
        cells[i], cells[j] = cells[j], cells[i]
        out.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def test_swapped_compare_columns_fail_the_ordering_check(tmp_path, monkeypatch):
    def swap(command, out, config):
        if command == "compare" and "fig-arrhenius" in config:
            _swap_columns(os.path.join(out, "fig-arrhenius.csv"), "lxf1:rho", "nt-v1:rho")

    monkeypatch.setattr(cli, "main", _corrupting_main(cli.main, swap))
    _, rnd = tiny_round("cli-figures", tmp_path)
    assert len(rnd.problems) == 1
    assert "fig-arrhenius" in rnd.problems[0] and "not lxf1" in rnd.problems[0]


def test_truncated_monitor_fails_the_monitor_check(tmp_path, monkeypatch):
    def truncate(command, out, config):
        if command == "run" and "fig-garz" in config:
            path = os.path.join(out, "fig-garz-lxf2-monitor.csv")
            with open(path) as fh:
                lines = fh.readlines()
            with open(path, "w") as fh:
                fh.writelines(lines[:-1])

    monkeypatch.setattr(cli, "main", _corrupting_main(cli.main, truncate))
    _, rnd = tiny_round("cli-figures", tmp_path)
    assert rnd.problems and all("fig-garz/lxf2" in p for p in rnd.problems)


def test_tracer_counts_reference_hits_and_restores_the_program(tmp_path):
    workload = workloads.WORKLOADS["cli-figures"](3, str(tmp_path / "work"), tiny=True)
    os.makedirs(workload.workdir)
    workload.setup()
    before = (schemes.correlate_band, schemes.Stepper.step, harness.compute_reference, cli.main)
    with tracing.Tracer() as tracer:
        assert schemes.correlate_band is not before[0]
        rnd = workload.run_round(str(tmp_path / "round"))
    assert (schemes.correlate_band, schemes.Stepper.step, harness.compute_reference, cli.main) == before
    assert rnd.problems == []
    metrics = tracer.metrics(rounds=1)
    assert metrics["harness.compute_reference.hits"][0] == len(workloads.FIG_PRESETS)
    assert metrics["harness.compute_reference.misses"][0] == 0
    assert metrics["harness.MonitorLog.record.ns_per_cell_step"][0] > 0
    assert 0 < metrics["cli.main.self_s"][0] < tracer.total_ns["cli.main"] / 1e9


def test_tracer_counts_cold_reference_misses(tmp_path):
    workload = workloads.WORKLOADS["coarse-tables"](3, str(tmp_path / "work"), tiny=True)
    workload.setup()
    with tracing.Tracer() as tracer:
        rnd = workload.run_round(str(tmp_path / "round"))
    assert rnd.problems == []
    metrics = tracer.metrics(rounds=1)
    assert metrics["harness.compute_reference.misses"][0] == 1
    assert metrics["harness.compute_reference.hits"][0] == 0
    assert metrics["kernels.correlate_band.calls_per_step"][0] > 0


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fine-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

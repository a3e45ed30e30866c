"""Self-test of the benchmark's own machinery.

Run from the root of the repository:

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import tracer as tracing
from speed import SpeedProbe

TINY = harness.Workload(
    "tiny", (3, 3, 2, 2, 2), (5.0, 20.0), harness.ALL_METHODS,
    seeds_per_snr=2, quality_passes=2, setup_repeats=1, tail_pct=50.0,
)


@pytest.fixture(scope="module")
def lib():
    return harness.load_library()


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    outer = tr.open("outer")  # 0 .. 10
    child = tr.open("child")  # 1 .. 3
    grandchild = tr.open("grandchild")  # 2 .. 2.5
    tr.close(grandchild)
    tr.close(child)
    second = tr.open("second")  # 4 .. 6
    tr.close(second)
    tr.close(outer)
    assert tr.self_times() == [10.0 - 2.0 - 2.0, 2.0 - 0.5, 0.5, 2.0]
    table = tr.table()
    assert table[("outer", None)]["self_s"] == 6.0
    assert table[("child", None)]["total_s"] == 2.0


def test_spans_inherit_the_run_grid_method():
    tr = tracing.Tracer()
    outer = tr.open("sync.run_grid", "iterative")
    inner = tr.open("procrustes.project")
    tr.count("procrustes.rotation_validations")
    tr.close(inner)
    tr.close(outer)
    assert [span[5] for span in tr.spans] == ["iterative", "iterative"]
    assert tr.counts[("procrustes.rotation_validations", "iterative")] == 1


def _bindings():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "mra_sync" or name.startswith("mra_sync.")
    }


def test_wrappers_are_removed_after_the_traced_run(lib):
    before = _bindings()
    rotation_check = lib.procrustes.Rotation.__post_init__
    submatrix = lib.model.RowCovariance.submatrix
    result = harness.measure(TINY, seed=5, seconds=0.01, trace=True, lib=lib)
    assert result["correct"], result["details"]["problems"]
    assert result["metrics"]["procrustes.project.calls.iterative"]["value"] > 0
    assert result["metrics"]["sync.triplet.sweeps_mean.sync_base"]["value"] >= 1
    after = _bindings()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        for attr, value in attrs.items():
            assert after[name][attr] is value, f"{name}.{attr} left patched"
    assert lib.procrustes.Rotation.__post_init__ is rotation_check
    assert lib.model.RowCovariance.submatrix is submatrix


def test_the_traced_run_patches_every_alias(lib):
    tr = tracing.Tracer()
    patches = tracing.install(tr)
    try:
        assert lib.sync.procrustes_project is lib.procrustes.procrustes_project
        assert lib.sync.split_triplet_tiles is lib.model.split_triplet_tiles
        assert lib.run_grid is lib.sync.run_grid
        assert hasattr(lib.sync.run_grid, "__wrapped__")
    finally:
        patches.restore()
    assert not hasattr(lib.sync.run_grid, "__wrapped__")


def test_same_seed_reproduces_quality_and_other_seed_changes_inputs(lib):
    first = harness.measure(TINY, seed=7, seconds=0.01, trace=False, lib=lib)
    again = harness.measure(TINY, seed=7, seconds=0.01, trace=False, lib=lib)
    assert first["correct"] and again["correct"]
    assert first["details"]["quality"] == again["details"]["quality"]

    def inputs(seed):
        bench = harness.Bench(lib, TINY, seed)
        bench.setup()
        obs, effective = bench.instance(0, 0)
        return np.vstack(obs.blocks), np.vstack(effective.blocks)

    same = inputs(7), inputs(7)
    assert np.array_equal(same[0][0], same[1][0])
    assert np.array_equal(same[0][1], same[1][1])
    other = inputs(8)
    assert not np.array_equal(same[0][0], other[0])
    assert not np.array_equal(same[0][1], other[1])


def test_result_line_has_exactly_the_result_keys(lib):
    result = harness.measure(TINY, seed=2, seconds=0.01, trace=False, lib=lib)
    assert set(result) == {"correct", "attempted", "failed", "metrics", "details"}
    assert result["attempted"] == 3 * 2 * TINY.seeds_per_snr * TINY.quality_passes
    assert result["failed"] == 0
    for entry in result["metrics"].values():
        assert set(entry) == {"value", "unit"}
    json.dumps(result)


def test_run_fails_without_the_library_sources(tmp_path):
    bench_dir = Path(__file__).resolve().parent
    copy = tmp_path / "bench"
    copy.mkdir()
    for path in bench_dir.glob("*.py"):
        shutil.copy(path, copy / path.name)
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_raised_and_non_finite_calls_count_as_failed(lib, monkeypatch):
    real = lib.sync.run_grid

    def flaky(method, *args, **kwargs):
        if method == "pairwise":
            raise lib.sync.SolverError(1e18)
        report = real(method, *args, **kwargs)
        if method == "iterative":
            return dataclasses.replace(report, nmse_db=math.inf)
        return report

    monkeypatch.setattr(lib.sync, "run_grid", flaky)
    result = harness.measure(TINY, seed=3, seconds=0.01, trace=False, lib=lib)
    assert not result["correct"]
    assert result["failed"] == 2 * result["attempted"] // 3
    assert result["details"]["failed_frac"] == pytest.approx(2 / 3)
    assert "SolverError" in result["details"]["failures"][0]


def test_probe_scales_a_time_by_the_speed_around_it():
    # (warm-up start, timed start, timed end) of three probes
    ticks = iter([-1.0, 0.0, 0.002, 9.0, 10.0, 10.001, 19.0, 20.0, 20.004])
    probe = SpeedProbe(kernel=lambda: None, reference_ms=3.0, clock=lambda: next(ticks))
    for _ in range(3):
        probe.sample()
    assert probe.ms == pytest.approx([2.0, 1.0, 4.0])
    # Only the probe at 10 s is within the window of an operation at 11-12 s.
    assert probe.local_ms(11.0, 12.0) == pytest.approx(1.0)
    assert probe.scale(11.0, 12.0) == pytest.approx(3.0)
    # A window holding all three takes their median.
    assert probe.local_ms(1.0, 19.0) == pytest.approx(2.0)
    # Nothing within the window: the nearest probe.
    assert probe.local_ms(15.0, 15.5) == pytest.approx(4.0)


def test_scaled_times_follow_the_probe(lib):
    bench = harness.Bench(lib, TINY, 1)
    bench.setup()
    bench.sweep_pass(0)
    p50, tail, info = bench.latency("sync_base")
    assert info["samples"] == TINY.seeds_per_snr * len(TINY.snr_db)
    ips, _ = bench.instances_per_s(bench.pass_times)
    setup_s, _ = bench.setup_s()
    # Probes twice as slow mean a slower host: every scaled time halves.
    bench.speed.ms = [2.0 * v for v in bench.speed.ms]
    slow_p50, slow_tail, _ = bench.latency("sync_base")
    assert (slow_p50, slow_tail) == pytest.approx((p50 / 2, tail / 2))
    assert bench.instances_per_s(bench.pass_times)[0] == pytest.approx(2 * ips)
    # Set-up builds follow their own probe only.
    assert bench.setup_s()[0] == pytest.approx(setup_s)
    bench.setup_speed.ms = [2.0 * v for v in bench.setup_speed.ms]
    assert bench.setup_s()[0] == pytest.approx(setup_s / 2)


def test_methods_outside_the_loop_run_on_the_first_pass(lib):
    narrow = dataclasses.replace(TINY, methods=("pairwise", "sync_base"), side_instances=3)
    result = harness.measure(narrow, seed=4, seconds=0.01, trace=False, lib=lib)
    assert result["correct"], result["details"]["problems"]
    side_calls = 3 * len(narrow.snr_db)
    assert result["details"]["latency"]["iterative"]["samples"] == side_calls
    loop_calls = 2 * narrow.seeds_per_snr * len(narrow.snr_db) * narrow.quality_passes
    assert result["attempted"] == loop_calls + side_calls
    assert result["metrics"]["iterative_nmse"]["value"] > 0

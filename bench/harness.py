"""One benchmark run of one workload, in its own process.

Usage: python3 bench/harness.py --workload NAME --seed N --seconds S --trace 0|1

Drives the public API of ``mra_sync`` from ``src/`` of this checkout with
one caller in a closed loop. A *pass* is a small sweep: for every SNR of
the workload it computes the two closed-form reference lines (once per
SNR, as ``run_sweep`` does), draws ``seeds_per_snr`` instances through
``model`` and runs every method of the workload on each with
``run_grid``, timing each call from outside. Passes repeat until the time
is used up. Every time is also scaled to a reference host speed by the
probes in ``speed.py``; the raw times are kept in ``details``.

Prints one JSON line: the result keys ``correct``, ``attempted``,
``failed`` and ``metrics``, plus ``details`` (environment, sample counts,
check results) which ``run.py`` moves into a result file.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import tracer as tracing
import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

ALL_METHODS = ("pairwise", "sync_base", "iterative")
REFINEMENT_ITERS = 4
LENGTH_SCALE = 5.0


@dataclass(frozen=True)
class Workload:
    """One seeded benchmark configuration.

    ``methods`` run on every instance of every pass. Methods of
    ``ALL_METHODS`` not listed run after the timed loop on the first
    ``side_instances`` instances per SNR of the first pass, so that every
    workload reports every method without those calls entering
    ``instances_per_s``.
    ``seeds_per_snr`` instances are drawn per SNR in every pass.
    ``setup_repeats`` set-up builds run before every pass, outside its
    time, so that ``setup_s`` samples the whole run as the calls do.
    ``quality_passes`` is the number of leading passes whose instances feed
    the accuracy metrics and checks; the loop always completes them, so
    accuracy is a function of the seed alone. ``tail_pct`` is fixed per
    workload so that the tail metric means the same percentile on every
    run and commit, with at least ten calls beyond it at the seed
    commit's call count in a 25 s run. Wide makes too few calls for a tail
    with ten beyond it; p75 is used there.
    """

    name: str
    grid: tuple  # height_blocks, width_blocks, block_rows, block_cols, antennas
    snr_db: tuple
    methods: tuple
    seeds_per_snr: int
    quality_passes: int
    setup_repeats: int
    tail_pct: float
    side_instances: int = 0


WORKLOADS = {
    # The paper's experiment: most time goes to the triplet alternation
    # (sync, procrustes); model and oracle are a few percent.
    "desk": Workload(
        "desk", (6, 6, 3, 4, 2), (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0),
        ALL_METHODS, seeds_per_snr=1, quality_passes=10, setup_repeats=3, tail_pct=80.0,
    ),
    # Scale axis: N*D = 3072, so the dense covariance, its Cholesky factor
    # and the ideal line's dense solve dominate; iterative is left out of
    # the loop so that model and oracle stay the largest share. Two seeds
    # per SNR double the calls per run at that share. Its iterative calls
    # take 2-3.5 s and vary with the instance, so it runs on three per SNR.
    "wide": Workload(
        "wide", (16, 16, 3, 4, 2), (0.0, 10.0, 20.0), ("pairwise", "sync_base"),
        seeds_per_snr=2, quality_passes=2, setup_repeats=2, tail_pct=75.0, side_instances=3,
    ),
    # d = 4 and very high SNR: 4x4 SVD/determinant path, ill-conditioned
    # tiles and alternations that run to their sweep cap. sync_base loses
    # to the single-block line at 70 and 90 dB at the seed commit.
    "high_snr": Workload(
        "high_snr", (6, 6, 3, 4, 4), (30.0, 50.0, 70.0, 90.0),
        ALL_METHODS, seeds_per_snr=1, quality_passes=10, setup_repeats=3, tail_pct=75.0,
    ),
}

WARMUP_PASS = 2**31 - 1
# Trace instance ids outside the loop, whose ids are pass numbers:
# set-up builds and result output, and the side calls.
SETUP_INSTANCE = -1
SIDE_INSTANCE = -2


def load_library():
    """Import ``mra_sync`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "mra_sync" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'mra_sync'} not found; run from a checkout")
    sys.path.insert(0, str(SRC))
    import mra_sync

    if Path(mra_sync.__file__).resolve().parent != (SRC / "mra_sync").resolve():
        raise SystemExit(f"error: imported mra_sync from {mra_sync.__file__}")
    return mra_sync


class Bench:
    """State of one run: the set-up objects, every call made, and the rows."""

    def __init__(self, lib, workload: Workload, seed: int):
        self.lib = lib
        self.workload = workload
        self.seed = seed
        self.grid = lib.model.GridSpec(*workload.grid)
        self.kernel = lib.model.KernelSpec(length_scale=LENGTH_SCALE)
        self.cov = None
        self.tiling = None
        self.lines = {}  # snr_db -> (ideal_line, single_channel_line)
        self.speed = speed.SpeedProbe(speed.loop_kernel(), speed.LOOP_REFERENCE_MS)
        self.setup_speed = speed.SpeedProbe(speed.setup_kernel(), speed.SETUP_REFERENCE_MS)
        self.calls = []  # method, start, end, wall ms, ok and error of every run_grid call
        self.rows = []  # ResultRow per call and per line, for the CSV
        self.problems = []  # failed correctness checks
        self.setup_times = []  # (start, end) of every set-up build
        self.pass_times = []  # (start, end, seconds without probes) of every pass
        self.passes = 0
        self.instances = 0  # instances drawn by the loop, the trace's instance ids
        self.tracer = None  # set during the traced half of a traced run

    # -- set-up and instances -------------------------------------------------

    def setup(self):
        """Build the covariance (with its Cholesky factor) and the tiling."""
        self.setup_speed.sample()
        start = time.perf_counter()
        self.cov = self.lib.model.build_row_covariance(self.grid, self.kernel)
        self.tiling = self.lib.graph.build_triplet_tiling(self.grid)
        self.setup_times.append((start, time.perf_counter()))

    def mark(self, instance_id):
        """Label the spans that follow with an instance id, when tracing."""
        if self.tracer is not None:
            self.tracer.instance = instance_id

    def instance(self, pass_index, snr_index, k=0):
        """Draw one seeded instance; the inputs depend only on (seed, pass, snr, k)."""
        self.speed.sample()
        model = self.lib.model
        snr = self.workload.snr_db[snr_index]
        sigma = self.lib.experiment.sigma_from_snr_db(snr)
        rng = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(pass_index, snr_index, k))
        )
        channels = model.sample_channel(self.cov, self.grid.antennas, rng)
        poses = model.sample_pose_set(self.grid.n_blocks, self.grid.antennas, rng)
        effective = model.apply_precoding(channels, poses)
        return model.observe(effective, sigma, rng), effective

    def reference_lines(self, snr):
        self.speed.sample()
        oracle = self.lib.oracle
        sigma = self.lib.experiment.sigma_from_snr_db(snr)
        d = self.grid.block_cells
        ideal = oracle.ideal_sync_mse_db(self.cov, sigma)
        single = oracle.single_channel_mse_db(self.cov.matrix[:d, :d], sigma)
        if snr not in self.lines:
            self.lines[snr] = (ideal, single)
            row = self.lib.experiment.ResultRow
            self.rows.append(row(snr, "ideal_line", -1, ideal, ideal - single, 0.0))
            self.rows.append(row(snr, "single_channel_line", -1, single, 0.0, 0.0))
        elif self.lines[snr] != (ideal, single):
            self.problems.append(f"reference lines at {snr} dB are not deterministic")

    # -- estimation -----------------------------------------------------------

    def estimate(self, method, row_seed, snr, obs, effective):
        """Time one run_grid call and check its output."""
        self.speed.sample()
        start = time.perf_counter()
        error = None
        try:
            report = self.lib.sync.run_grid(
                method, obs, self.cov, self.grid, self.tiling,
                ground_truth=effective, refinement_iters=REFINEMENT_ITERS,
            )
        except Exception:  # a failed call is counted, not fatal
            report = None
            error = traceback.format_exc(limit=3)
        end = time.perf_counter()
        wall_ms = (end - start) * 1e3
        nmse = math.nan if report is None or report.nmse_db is None else report.nmse_db
        ok = math.isfinite(nmse)
        if report is not None:
            shape = (self.grid.block_cells, self.grid.antennas)
            est = report.estimates
            if est.n_blocks != self.grid.n_blocks or est.block_shape != shape:
                self.problems.append(
                    f"{method} at {snr} dB returned {est.n_blocks} blocks of "
                    f"{est.block_shape}, expected {self.grid.n_blocks} of {shape}"
                )
            if not ok:
                error = f"non-finite nmse_db {nmse}"
        self.calls.append(
            {"method": method, "start": start, "end": end, "ms": wall_ms, "ok": ok, "error": error}
        )
        single = self.lines[snr][1]
        self.rows.append(
            self.lib.experiment.ResultRow(snr, method, row_seed, nmse, nmse - single, wall_ms)
        )

    def sweep_pass(self, pass_index):
        """Per SNR: lines, then every method on each instance.

        Returns the pass's seconds without the probes run in it.
        """
        per_snr = self.workload.seeds_per_snr
        probes_before = self.speed.spent_s
        start = time.perf_counter()
        for snr_index, snr in enumerate(self.workload.snr_db):
            self.mark(self.instances)
            self.reference_lines(snr)
            for k in range(per_snr):
                self.mark(self.instances)
                self.instances += 1
                obs, effective = self.instance(pass_index, snr_index, k)
                for method in self.workload.methods:
                    self.estimate(method, pass_index * per_snr + k, snr, obs, effective)
        end = time.perf_counter()
        seconds = end - start - (self.speed.spent_s - probes_before)
        self.pass_times.append((start, end, seconds))
        return seconds

    def run_passes(self, budget_s, min_passes):
        """Run passes until the next one would end further from the budget.

        The set-up is rebuilt before every pass, outside the pass's time.
        Returns (passes run, seconds spent in them).
        """
        done, spent = 0, 0.0
        while done < min_passes or spent + 0.5 * spent / done < budget_s:
            self.mark(SETUP_INSTANCE)
            for _ in range(self.workload.setup_repeats):
                self.setup()
            spent += self.sweep_pass(self.passes)
            self.passes += 1
            done += 1
        return done, spent

    def side_methods(self):
        """Methods outside the loop, on the leading instances of the first pass."""
        extra = [m for m in ALL_METHODS if m not in self.workload.methods]
        if not extra:
            return
        self.mark(SIDE_INSTANCE)
        for snr_index, snr in enumerate(self.workload.snr_db):
            for k in range(self.workload.side_instances):
                obs, effective = self.instance(0, snr_index, k)
                for method in extra:
                    self.estimate(method, k, snr, obs, effective)

    def warm_up(self):
        """One untimed instance through every loop method, recorded nowhere."""
        snr_index = len(self.workload.snr_db) // 2
        snr = self.workload.snr_db[snr_index]
        obs, effective = self.instance(WARMUP_PASS, snr_index)
        for method in self.workload.methods:
            try:
                self.lib.sync.run_grid(
                    method, obs, self.cov, self.grid, self.tiling,
                    ground_truth=effective, refinement_iters=REFINEMENT_ITERS,
                )
            except Exception:  # the timed calls record and count any failure
                pass
        self.reference_lines(snr)

    # -- results --------------------------------------------------------------

    def quality_rows(self):
        """Rows of the calls in the accuracy set: the leading passes, plus side calls."""
        q = self.workload.quality_passes * self.workload.seeds_per_snr
        return [r for r in self.rows if r.seed == -1 or 0 <= r.seed < q]

    def quality(self):
        """Accuracy metrics and the statistical checks, from the accuracy set."""
        rows = self.quality_rows()
        summary = self.lib.experiment.emit_summary(rows)
        means = {(s.snr_db, s.method): s for s in summary}
        snrs = self.workload.snr_db
        db = {}
        for method in ALL_METHODS:
            values = [r.nmse_db for r in rows if r.method == method]
            db[f"{method}_nmse"] = statistics.fmean(values)
        db["iterative_gap"] = statistics.fmean(
            means[(s, "iterative")].mean_nmse_db - self.lines[s][0] for s in snrs
        )
        excess = {
            m: statistics.fmean(means[(s, m)].mean_nmse_db - self.lines[s][1] for s in snrs)
            for m in ALL_METHODS
        }
        db["excess_over_single"] = max(excess.values())
        # Reported as linear ratios, which are positive whatever the sign in dB.
        metrics = {name: 10.0 ** (value / 10.0) for name, value in db.items()}

        for snr in snrs:
            ideal, single = self.lines[snr]
            if not ideal < single:
                self.problems.append(f"ideal_line {ideal} >= single_channel_line {single} at {snr} dB")
        # Pooled variance over every (snr, method) group with two or more seeds.
        groups = [s for s in summary if s.method in ALL_METHODS and s.n > 1]
        dof = sum(s.n - 1 for s in groups)
        pooled_var = sum(s.se_nmse_db**2 * s.n * (s.n - 1) for s in groups) / dof
        for s in summary:
            if s.method not in ALL_METHODS:
                continue
            margin = 3.0 * math.sqrt(pooled_var / s.n)
            if s.mean_nmse_db < self.lines[s.snr_db][0] - margin:
                self.problems.append(
                    f"{s.method} mean {s.mean_nmse_db:.3f} dB at {s.snr_db:g} dB is below "
                    f"ideal_line {self.lines[s.snr_db][0]:.3f} by more than 3 pooled SE"
                )
        details = {
            "db": db,
            "excess_over_single_db_by_method": excess,
            "excess_over_single_db_by_snr": {
                f"{s:g}": max(means[(s, m)].mean_nmse_db - self.lines[s][1] for m in ALL_METHODS)
                for s in snrs
            },
            "pooled_sd_db": math.sqrt(pooled_var),
            "lines": {f"{s:g}": list(v) for s, v in self.lines.items()},
            "means": {f"{s.method}@{s.snr_db:g}": [s.mean_nmse_db, s.se_nmse_db, s.n] for s in summary},
        }
        return metrics, details

    def latency(self, method):
        """Median and the workload's tail percentile of one method's calls, in ms.

        Each call's wall time is scaled to the reference speed by the probes
        around it. ``info`` holds the sample counts and the raw figures.
        """
        calls = [c for c in self.calls if c["method"] == method and c["ok"]]
        info = {"samples": len(calls), "tail_pct": self.workload.tail_pct}
        if not calls:  # every call failed; the run is already incorrect
            return math.nan, math.nan, {**info, "beyond_tail": 0}
        raw = [c["ms"] for c in calls]
        ms = [c["ms"] * self.speed.scale(c["start"], c["end"]) for c in calls]
        tail = float(np.percentile(ms, self.workload.tail_pct))
        info.update(
            beyond_tail=sum(v > tail for v in ms),
            raw_p50=float(np.median(raw)),
            raw_tail=float(np.percentile(raw, self.workload.tail_pct)),
        )
        return float(np.median(ms)), tail, info

    def instances_per_s(self, passes):
        """Instances per second of the given passes, raw and at the reference speed."""
        count = len(passes) * len(self.workload.snr_db) * self.workload.seeds_per_snr
        raw = sum(net for _, _, net in passes)
        scaled = sum(net * self.speed.scale(start, end) for start, end, net in passes)
        return count / scaled, count / raw

    def setup_s(self):
        """Median set-up time at the reference speed, and the raw median."""
        raw = [end - start for start, end in self.setup_times]
        scaled = [(end - start) * self.setup_speed.scale(start, end) for start, end in self.setup_times]
        return statistics.median(scaled), statistics.median(raw)


# -- per-layer metrics ---------------------------------------------------------

TRIPLET_METHODS = ("sync_base", "iterative")


def per_layer(tracer, bench, overhead_frac, traced_pass_s):
    """The traced run's layer metrics, normalized per run_grid call or per call."""
    table = tracer.table()
    counts = tracer.counts
    grid = bench.grid
    runs = {m: table[("sync.run_grid", m)]["calls"] for m in ALL_METHODS}

    def stat(span, method, key):
        row = table.get((span, method))
        return row[key] if row else 0

    def per_run(span, method, key):
        value = stat(span, method, key) / runs[method]
        return value * 1e3 if key == "self_s" else value

    def mean_ms(span):
        rows = [v for (name, method), v in table.items() if name == span and method is None]
        calls = sum(v["calls"] for v in rows)
        return 1e3 * sum(v["total_s"] for v in rows) / calls

    out = {}
    for m in ALL_METHODS:
        projections = stat("procrustes.project", m, "calls")
        out[f"procrustes.project.calls.{m}"] = (projections / runs[m], "count")
        out[f"procrustes.project.self_ms.{m}"] = (per_run("procrustes.project", m, "self_s"), "ms")
        out[f"procrustes.project.degenerate_ratio.{m}"] = (
            counts[(tracing.DEGENERATE_PROJECTIONS, m)] / projections, "ratio")
        out[f"procrustes.rotation_validations.{m}"] = (
            counts[(tracing.ROTATION_VALIDATIONS, m)] / runs[m], "count")
        for span in ("sync.negated_noisy_inverse", "model.submatrix", "sync.denoise_given_poses"):
            out[f"{span}.calls.{m}"] = (per_run(span, m, "calls"), "count")
            out[f"{span}.self_ms.{m}"] = (per_run(span, m, "self_s"), "ms")
        out[f"sync.run_grid.self_ms.{m}"] = (per_run("sync.run_grid", m, "self_s"), "ms")
    for m in TRIPLET_METHODS:
        out[f"sync.estimate_triplet_direct.calls.{m}"] = (
            per_run("sync.estimate_triplet_direct", m, "calls"), "count")
        out[f"sync.estimate_triplet_direct.self_ms.{m}"] = (
            per_run("sync.estimate_triplet_direct", m, "self_s"), "ms")
        estimates = counts[(tracing.TRIPLET_ESTIMATES, m)]
        out[f"sync.triplet.sweeps_mean.{m}"] = (counts[(tracing.TRIPLET_SWEEPS, m)] / estimates, "count")
        out[f"sync.triplet.converged_ratio.{m}"] = (counts[(tracing.TRIPLET_CONVERGED, m)] / estimates, "ratio")
        out[f"model.split_triplet_tiles.self_ms.{m}"] = (
            per_run("model.split_triplet_tiles", m, "self_s"), "ms")
    out["sync.residual_noise_sigma.calls.iterative"] = (
        per_run("sync.residual_noise_sigma", "iterative", "calls"), "count")
    out["sync.residual_noise_sigma.self_ms.iterative"] = (
        per_run("sync.residual_noise_sigma", "iterative", "self_s"), "ms")
    out["sync.estimate_pair.calls.pairwise"] = (
        per_run("sync.estimate_pair", "pairwise", "calls"), "count")
    out["sync.estimate_pair.self_ms.pairwise"] = (
        per_run("sync.estimate_pair", "pairwise", "self_s"), "ms")

    nd = grid.n_blocks * grid.block_cells
    for span in ("model.build_row_covariance", "model.sample_channel", "model.sample_pose_set",
                 "model.observe", "model.apply_precoding", "oracle.ideal_sync_mse_db",
                 "oracle.single_channel_mse_db", "graph.build_triplet_tiling",
                 "graph.lattice_edges", "experiment.emit_csv", "experiment.emit_summary"):
        out[f"{span}.ms"] = (mean_ms(span), "ms")
    out["model.cov_bytes"] = (8 * nd**2, "bytes")
    out["oracle.ideal_line.flops"] = (nd**3 * 4 / 3, "flops")
    out["graph.triplets"] = (len(bench.tiling.triplets), "count")
    out["graph.edges"] = (len(bench.lib.graph.lattice_edges(grid)), "count")

    # Shares of the traced passes' time, by layer of the self time in them.
    self_by_layer = {}
    for (name, _method), row in tracer.table(where=lambda span: span[4] >= 0).items():
        layer = name.split(".", 1)[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + row["self_s"]
    out["trace.model_oracle_share"] = (
        (self_by_layer.get("model", 0.0) + self_by_layer.get("oracle", 0.0)) / traced_pass_s, "frac")
    out["trace.sync_procrustes_share"] = (
        (self_by_layer.get("sync", 0.0) + self_by_layer.get("procrustes", 0.0)) / traced_pass_s, "frac")
    out["trace.overhead_frac"] = (overhead_frac, "frac")
    return out


# -- environment -----------------------------------------------------------------

def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy without show_config(mode=...)
        blas = {}
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    sources = sorted((SRC / "mra_sync").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_threads_requested": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


# -- the run ---------------------------------------------------------------------

def measure(workload: Workload, seed: int, seconds: float, trace: bool, lib=None):
    """Run one workload; returns the result dict printed by ``main``."""
    lib = lib or load_library()
    bench = Bench(lib, workload, seed)
    bench.setup()
    bench.warm_up()

    if not trace:
        passes, spent = bench.run_passes(seconds, workload.quality_passes)
        loop_calls = {"passes": passes, "seconds": spent}
        bench.side_methods()
    else:
        passes_a, spent_a = bench.run_passes(seconds / 2, 1)
        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
        bench.tracer = tracer
        try:
            passes_b, spent_b = bench.run_passes(
                seconds / 2, max(1, workload.quality_passes - passes_a))
            bench.side_methods()
            bench.mark(SETUP_INSTANCE)
            rows = bench.quality_rows()
            lib.experiment.emit_summary(rows)
            OUT.mkdir(parents=True, exist_ok=True)
            lib.experiment.emit_csv(rows, str(OUT / f"{workload.name}-seed{seed}-trace.csv"))
        finally:
            bench.tracer = None
            patches.restore()
        loop_calls = {"passes": passes_a + passes_b, "untraced_passes": passes_a,
                      "untraced_seconds": spent_a, "traced_passes": passes_b,
                      "traced_seconds": spent_b}

    quality, quality_details = bench.quality()
    attempted = len(bench.calls)
    failed = sum(not c["ok"] for c in bench.calls)
    if failed:
        bench.problems.append(f"{failed} of {attempted} run_grid calls failed")

    latency_info = {}
    setup_s, raw = bench.setup_s()
    raw_figures = {"setup_s": raw}
    if not trace:
        metrics = {}
        for method in ALL_METHODS:
            p50, tail, info = bench.latency(method)
            metrics[f"{method}_ms.p50"] = (p50, "ms")
            metrics[f"{method}_ms.tail"] = (tail, "ms")
            latency_info[method] = info
        ips, raw_figures["instances_per_s"] = bench.instances_per_s(bench.pass_times)
        metrics["instances_per_s"] = (ips, "1/s")
        metrics["setup_s"] = (setup_s, "s")
        for name, value in quality.items():
            metrics[name] = (value, "ratio")
    else:
        ips_a, _ = bench.instances_per_s(bench.pass_times[:passes_a])
        ips_b, _ = bench.instances_per_s(bench.pass_times[passes_a:])
        metrics = per_layer(tracer, bench, ips_a / ips_b - 1.0, spent_b)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"{workload.name}-seed{seed}-spans.jsonl.gz")
        loop_calls["spans"] = len(tracer.spans)

    failures = [c["error"] for c in bench.calls if not c["ok"]][:5]
    return {
        "correct": not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": {
            "workload": workload.name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "failed_frac": failed / attempted,
            "problems": bench.problems,
            "failures": failures,
            "loop": loop_calls,
            "setup_times_s": [end - start for start, end in bench.setup_times],
            "raw": raw_figures,
            "probe_ms": {
                name: {
                    "reference": probe.reference_ms,
                    "median": statistics.median(probe.ms),
                    "count": len(probe.ms),
                }
                for name, probe in (("loop", bench.speed), ("setup", bench.setup_speed))
            },
            "latency": latency_info,
            "quality": quality,
            "quality_details": quality_details,
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    lib = load_library()
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), lib)
    result["details"]["environment"] = environment()
    print(json.dumps(result))


if __name__ == "__main__":
    main()

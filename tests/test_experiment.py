import dataclasses
import math
import os
import re

import numpy as np
import pytest

from mra_sync import (
    ExperimentConfig,
    GridSpec,
    KernelSpec,
    ResultRow,
    SolverError,
    default_config,
    emit_csv,
    emit_summary,
    read_csv,
    run_sweep,
    sigma_from_snr_db,
)
import mra_sync
from mra_sync import cli, experiment
from mra_sync.cli import main as cli_main
from mra_sync.experiment import CSV_HEADER, ConfigError, load_config, parse_config_text

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def tiny_config(**overrides):
    base = dict(
        grid=GridSpec(2, 2, 2, 2, 2),
        kernel=KernelSpec(3.0),
        snr_db_list=(0.0, 10.0),
        seeds=2,
        methods=("pairwise", "sync_base", "iterative", "ideal_line", "single_channel_line"),
        refinement_iters=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def strip_wall(rows):
    return [(r.snr_db, r.method, r.seed, r.nmse_db, r.rel_improvement_db) for r in rows]


def test_sigma_from_snr_db():
    assert sigma_from_snr_db(0.0) == 1.0
    assert sigma_from_snr_db(20.0) == pytest.approx(0.1, rel=1e-12)
    # SNR bookkeeping: -20 log10(sigma) inverts the mapping
    assert -20.0 * math.log10(sigma_from_snr_db(7.3)) == pytest.approx(7.3, rel=1e-12)


def test_row_counts_single_cell():
    config = tiny_config(snr_db_list=(10.0,), seeds=1, methods=("sync_base", "ideal_line"))
    rows = run_sweep(config)
    assert len(rows) == 1 + 1
    methods = {r.method for r in rows}
    assert methods == {"sync_base", "ideal_line"}
    line = next(r for r in rows if r.method == "ideal_line")
    assert line.seed == -1 and line.wall_ms == 0.0


def test_rows_deterministic_modulo_wall():
    config = tiny_config()
    assert strip_wall(run_sweep(config)) == strip_wall(run_sweep(config))


def test_single_channel_line_is_reference():
    rows = run_sweep(tiny_config(methods=("single_channel_line",), seeds=1))
    for r in rows:
        assert r.rel_improvement_db == 0.0


def test_emit_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], str(path))
    assert path.read_text() == CSV_HEADER + "\n"


def test_emit_csv_round_trip(tmp_path):
    rows = run_sweep(tiny_config())
    path = tmp_path / "sweep.csv"
    emit_csv(rows, str(path))
    parsed = read_csv(str(path))
    path2 = tmp_path / "again.csv"
    emit_csv(parsed, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_emit_csv_sorted_and_formatted(tmp_path):
    rows = [
        ResultRow(10.0, "b_method", 1, -1.23456789, 0.5, 3.25),
        ResultRow(0.0, "a_method", 0, -2.0, 0.25, 1.0),
        ResultRow(10.0, "a_method", 0, float("nan"), float("nan"), 2.0),
    ]
    path = tmp_path / "rows.csv"
    emit_csv(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("0,a_method,0,-2,")
    assert lines[2].split(",")[1] == "a_method"
    assert lines[3].split(",")[3] == "-1.23457"  # 6 significant digits


def test_golden_csv_stable(tmp_path):
    # frozen once from the implementation; timing column excluded (not
    # deterministic), everything else must reproduce bit-for-bit at the
    # CSV's 6-significant-digit precision
    golden = os.path.join(DATA_DIR, "golden_sweep.csv")
    fresh = tmp_path / "fresh.csv"
    emit_csv(run_sweep(tiny_config()), str(fresh))
    assert strip_wall(read_csv(str(fresh))) == strip_wall(read_csv(golden))


def test_csv_header_is_result_row_fields():
    assert CSV_HEADER.split(",") == [f.name for f in dataclasses.fields(ResultRow)]


def test_read_csv_names_file_and_line_of_malformed_row(tmp_path):
    path = tmp_path / "rows.csv"
    emit_csv([ResultRow(0.0, "m", 0, -2.0, 0.5, 1.0)], str(path))
    good = path.read_text()
    for bad_row in ("0,m,0,-2,0.5\n", "0,m,0,-2,0.5,1,7\n", "0,m,zero,-2,0.5,1\n"):
        path.write_text(good + bad_row)
        with pytest.raises(ValueError, match=re.escape(f"{path} line 3")):
            read_csv(str(path))


def test_summary_aggregates():
    rows = [
        ResultRow(0.0, "m", 0, -10.0, 0.0, 1.0),
        ResultRow(0.0, "m", 1, -12.0, 0.0, 1.0),
        ResultRow(0.0, "line", -1, -15.0, 0.0, 0.0),
    ]
    summary = {(s.snr_db, s.method): s for s in emit_summary(rows)}
    m = summary[(0.0, "m")]
    assert m.mean_nmse_db == pytest.approx(-11.0)
    assert m.se_nmse_db == pytest.approx(np.std([-10, -12], ddof=1) / math.sqrt(2))
    assert m.n == 2 and not m.single_seed
    line = summary[(0.0, "line")]
    assert line.single_seed and line.se_nmse_db == 0.0


def test_summary_constant_rows():
    rows = [ResultRow(0.0, "m", s, -3.0, 0.0, 1.0) for s in range(5)]
    (s,) = emit_summary(rows)
    assert s.se_nmse_db == 0.0 and s.n == 5


def test_iterative_significantly_below_sync_base_at_10db():
    # 25-seed default at 10 dB: the iterative mean sits below sync_base.
    # Both methods share each seed's draw, so the right yardstick is the
    # paired-difference standard error; the per-method SEs are dominated by
    # seed-to-seed signal variance common to both.
    config = default_config(snr_db_list=(10.0,), methods=("sync_base", "iterative"))
    rows = run_sweep(config)
    sync = {r.seed: r.nmse_db for r in rows if r.method == "sync_base"}
    iterative = {r.seed: r.nmse_db for r in rows if r.method == "iterative"}
    diffs = np.array([sync[s] - iterative[s] for s in sync])
    se = np.std(diffs, ddof=1) / math.sqrt(len(diffs))
    assert diffs.mean() > se


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(seeds=0)
    with pytest.raises(ConfigError):
        tiny_config(snr_db_list=())
    with pytest.raises(ConfigError):
        tiny_config(methods=("nope",))


def test_config_rejects_repeated_method():
    with pytest.raises(ConfigError, match=r"\['sync_base'\] are listed more than once"):
        tiny_config(methods=("sync_base", "pairwise", "sync_base"))
    with pytest.raises(ConfigError, match="sync_base"):
        parse_config_text("methods = sync_base, sync_base\nseeds = 1")


def test_config_rejects_non_integer_counts():
    for field in ("seeds", "refinement_iters"):
        for value in (2.5, 2.0, "3", math.nan, True):
            with pytest.raises(ConfigError, match=f"{field} must be an integer"):
                tiny_config(**{field: value})
    assert tiny_config(seeds=np.int64(2), refinement_iters=np.int64(0)).seeds == 2


def test_parse_config_rejects_repeated_key():
    with pytest.raises(ConfigError, match="line 3: key 'seeds' is already set"):
        parse_config_text("seeds = 3\n# again\nSeeds = 5\n")


def test_parse_config_text_full():
    config = parse_config_text(
        """
        # comment line
        grid = 3x4
        block = 2x2
        antennas = 2
        lengthscale = 4.5
        snr_db = 0, 5, 10
        seeds = 3
        methods = sync_base, ideal_line
        refinement_iters = 2
        out = results.csv
        """
    )
    assert config.grid.height_blocks == 3 and config.grid.width_blocks == 4
    assert config.kernel.length_scale == 4.5
    assert config.snr_db_list == (0.0, 5.0, 10.0)
    assert config.seeds == 3
    assert config.methods == ("sync_base", "ideal_line")
    assert config.output_path == "results.csv"


def test_parse_config_defaults_and_errors():
    config = parse_config_text("")
    assert config.grid == default_config().grid
    with pytest.raises(ConfigError):
        parse_config_text("grid = 3by4")
    with pytest.raises(ConfigError):
        parse_config_text("unknown_key = 1")
    with pytest.raises(ConfigError):
        parse_config_text("just some words")


def test_parse_config_takes_equals_only():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("grid: 3x4")


def test_config_rejects_nan_and_negative_infinite_snr(tmp_path, capsys):
    for text in ("nan", "-inf", "0, nan"):
        with pytest.raises(ConfigError, match="snr_db"):
            parse_config_text(f"snr_db = {text}")
    assert parse_config_text("snr_db = inf").snr_db_list == (math.inf,)
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("snr_db = nan\n")
    assert cli_main(["sweep", "--config", str(cfg)]) == 1


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.cfg"))


def test_cli_demo_runs(capsys):
    code = cli_main(
        ["demo", "--snr", "10", "--seed", "0", "--grid", "2x2", "--block", "2x2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    for token in ("pairwise", "sync_base", "iterative", "ideal", "single"):
        assert token in out


def test_demo_is_the_sweep_on_one_seed(capsys):
    # the demo's settings: tiny_config's geometry and SNRs, default refinement
    config = tiny_config(refinement_iters=default_config().refinement_iters)
    demo_rows = experiment._run_seeds(config, (1,))
    sweep_rows = [r for r in run_sweep(config) if r.seed in (1, -1)]
    assert strip_wall(demo_rows) == strip_wall(sweep_rows)
    code = cli_main(
        ["demo", "--snr", "0,10", "--seed", "1", "--grid", "2x2", "--block", "2x2",
         "--lengthscale", "3"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.splitlines()) == len(demo_rows)
    for r in demo_rows:
        assert f"{r.snr_db:6.1f} dB  {r.method:20s} nmse {r.nmse_db:8.3f} dB" in out


def test_cli_demo_snr_is_the_snr_db_setting(capsys):
    for text in ("nan", "-inf", "ten"):
        assert cli_main(["demo", "--snr", text]) == 1
        assert "config error" in capsys.readouterr().err


def test_cli_demo_rejects_negative_seed(capsys):
    assert cli_main(["demo", "--snr", "10", "--seed", "-1"]) == 1
    assert "config error: seed must be an integer >= 0" in capsys.readouterr().err


def test_cli_demo_prints_typed_failure_as_nan_row(monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise SolverError(1e17)

    monkeypatch.setattr(experiment, "run_grid", failing)
    assert cli_main(["demo", "--snr", "10", "--grid", "2x2", "--block", "2x2"]) == 0
    out = capsys.readouterr().out
    for method in ("pairwise", "sync_base", "iterative"):
        assert f"{method:20s} nmse      nan dB" in out


def test_cli_sweep_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "grid = 2x2\nblock = 2x2\nlengthscale = 3\nsnr_db = 10\nseeds = 1\n"
        "methods = sync_base, single_channel_line\n"
    )
    out_path = tmp_path / "rows.csv"
    code = cli_main(["sweep", "--config", str(cfg), "--out", str(out_path)])
    assert code == 0
    rows = read_csv(str(out_path))
    assert {r.method for r in rows} == {"sync_base", "single_channel_line"}


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("grid = oops\n")
    assert cli_main(["sweep", "--config", str(cfg)]) == 1
    assert cli_main(["sweep", "--grid", "nonsense"]) == 1
    assert cli_main(["demo", "--snr", "10", "--antennas", "1"]) == 1


def test_cli_flags_apply_on_top_of_config_file(tmp_path, monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(cli, "run_sweep", lambda config: seen.append(config) or [])
    cfg = tmp_path / "base.cfg"
    cfg.write_text("grid = 3x4\nblock = 2x2\nseeds = 3\n")
    assert cli_main(["sweep", "--config", str(cfg), "--grid", "2x2"]) == 0
    (config,) = seen
    assert (config.grid.height_blocks, config.grid.width_blocks) == (2, 2)
    assert (config.grid.block_rows, config.grid.block_cols, config.seeds) == (2, 2, 3)


def test_cli_demo_rejects_out(tmp_path, capsys):
    # demo writes no file, so it takes no --out
    out_path = tmp_path / "x.csv"
    assert cli_main(["demo", "--snr", "10", "--out", str(out_path)]) == 1
    assert not out_path.exists()


def test_cli_rejects_unparsable_flag_values(capsys):
    assert cli_main(["demo", "--snr", "10", "--antennas", "2.5"]) == 1
    assert cli_main(["sweep", "--lengthscale", "abc"]) == 1
    # 2 l^2 overflows, or underflows to 0: rejected as config errors, not raised past the CLI
    for length_scale in ("1e300", "1e-200"):
        assert cli_main(["demo", "--snr", "10", "--lengthscale", length_scale]) == 1
    assert "length_scale" in capsys.readouterr().err


def test_cli_runtime_error_exit_code(tmp_path, monkeypatch):
    # unwritable output path surfaces as a runtime failure
    code = cli_main(
        [
            "sweep",
            "--grid",
            "2x2",
            "--block",
            "2x2",
            "--seeds",
            "1",
            "--out",
            str(tmp_path / "no_dir" / "x.csv"),
        ]
    )
    assert code == 2


def test_run_sweep_records_typed_failures_and_raises_bugs(monkeypatch):
    config = tiny_config(snr_db_list=(10.0,), seeds=1, methods=("sync_base",))

    def failing(error):
        def run_grid(*args, **kwargs):
            raise error
        return run_grid

    monkeypatch.setattr(experiment, "run_grid", failing(SolverError(1e17)))
    (row,) = run_sweep(config)
    assert row.method == "sync_base" and math.isnan(row.nmse_db)
    monkeypatch.setattr(experiment, "run_grid", failing(TypeError("a bug")))
    with pytest.raises(TypeError, match="a bug"):
        run_sweep(config)


def test_package_exports_every_module_name_once():
    modules = (
        mra_sync.model,
        mra_sync.procrustes,
        mra_sync.graph,
        mra_sync.sync,
        mra_sync.oracle,
        experiment,
    )
    for module in modules:
        for name in module.__all__:
            assert getattr(mra_sync, name) is getattr(module, name), (module.__name__, name)
    assert mra_sync.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(mra_sync.__all__)) == len(mra_sync.__all__)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the triplet alternation's 8-sweep cap stops short of the optimum at high SNR",
)
def test_triplet_methods_reach_single_block_line_at_high_snr():
    config = ExperimentConfig(
        grid=GridSpec(6, 6, 3, 4, 4),
        kernel=KernelSpec(5.0),
        snr_db_list=(70.0, 90.0),
        seeds=4,
        methods=("sync_base", "iterative", "single_channel_line"),
    )
    means = {(r.snr_db, r.method): r.mean_nmse_db for r in emit_summary(run_sweep(config))}
    for snr_db in config.snr_db_list:
        line = means[(snr_db, "single_channel_line")]
        for method in ("sync_base", "iterative"):
            assert means[(snr_db, method)] <= line, (snr_db, method)

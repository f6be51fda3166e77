import collections
import dataclasses
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from vortexfmm import cli, engine, errors, harness
from vortexfmm.harness import (
    SWEEP_HEADER,
    ConfigError,
    SweepConfig,
    TimingRow,
    occupancy_levels,
    parse_sweep_config,
    run_case,
    run_single,
    run_sweep,
    timing_study,
)
from vortexfmm.kernels import velocity_direct
from vortexfmm.model import UNIT_DOMAIN, generate_particles, read_particles

SMALL_CFG = """
# comment lines and blanks are fine

n = 100
levels = 2, 3
p = 2, 4, 6
seeds = 1, 2
oracle = always
out = {out}
"""


def write_cfg(tmp_path, text=SMALL_CFG, name="sweep.cfg", out="rows.csv"):
    path = tmp_path / name
    path.write_text(text.format(out=tmp_path / out))
    return path


class TestConfigParsing:
    def test_small_grid(self, tmp_path):
        cfg = parse_sweep_config(write_cfg(tmp_path))
        assert cfg.n_values == (100,)
        assert cfg.l_values == (2, 3)
        assert cfg.p_values == (2, 4, 6)
        assert cfg.seeds == (1, 2)
        assert cfg.run_count == 12
        assert cfg.oracle_k is None and cfg.meta()["oracle"] == "always"

    def test_absent_keys_take_the_sweep_config_defaults(self, tmp_path):
        path = tmp_path / "min.cfg"
        path.write_text("n = 10\nlevels = 2\np = 2\nseeds = 1\n")
        assert parse_sweep_config(path) == SweepConfig((10,), (2,), (2,), (1,))

    @pytest.mark.parametrize(
        "line, key",
        [
            ("distribution = uniform", "distribution"),
            ("n = 100, 0", "n"),
            ("levels = 1, 2", "levels"),
            ("p = 4, 61", "p"),
            ("seeds = 1, -2", "seeds"),
            ("sigma = 0", "sigma"),
            ("sigma = nan", "sigma"),
            ("map_grid = 0", "map_grid"),
            ("n = 100, 100", "n"),
            ("seeds = 1, 1", "seeds"),
        ],
    )
    def test_bad_value_rejected_before_any_output(self, tmp_path, line, key):
        key_of_line = line.split("=")[0].strip()
        text = "".join(f"{row}\n" for row in SMALL_CFG.splitlines() if not row.startswith(key_of_line))
        path = write_cfg(tmp_path, text + line + "\n")
        with pytest.raises(ConfigError, match=f"'{key}'"):
            parse_sweep_config(path)
        assert cli.main(["sweep", str(path), "--maps"]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.cfg"]

    def test_config_built_in_code_is_checked_before_any_output(self, tmp_path):
        out = tmp_path / "rows.csv"
        with pytest.raises(ConfigError, match="'distribution'"):
            run_sweep(SweepConfig((100,), (2,), (4,), (1,), distribution="uniform"), out)
        good = SweepConfig((100,), (2,), (4,), (1,))
        # a non-integral count, depth or order, and a blob core whose 2 sigma^2 underflows, were
        # accepted and failed (or gave NaN) only after the header was written
        for change, key in (({"sigma": 0.0}, "sigma"), ({"oracle_k": 0}, "oracle"), ({"p_values": (61,)}, "p"),
                            ({"n_values": (100.5,)}, "n"), ({"l_values": (2.5,)}, "levels"),
                            ({"p_values": (True,)}, "p"),
                            ({"kernel": "gaussian", "sigma": 1e-200}, "sigma")):
            with pytest.raises(ConfigError, match=f"'{key}'"):
                dataclasses.replace(good, **change)
        assert list(tmp_path.iterdir()) == []

    def test_unknown_key_is_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n = 10\nlevels = 2\np = 2\nseeds = 1\nbogus = 3\n")
        with pytest.raises(ConfigError, match="bogus"):
            parse_sweep_config(path)

    def test_missing_key_is_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n = 10\nlevels = 2\nseeds = 1\n")
        with pytest.raises(ConfigError, match="'p'"):
            parse_sweep_config(path)

    def test_bad_list_and_bad_oracle(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n = 10,x\nlevels = 2\np = 2\nseeds = 1\n")
        with pytest.raises(ConfigError, match="'n'"):
            parse_sweep_config(path)
        path.write_text("n = 10\nlevels = 2\np = 2\nseeds = 1\noracle = sometimes\n")
        with pytest.raises(ConfigError, match="oracle"):
            parse_sweep_config(path)

    def test_sampled_oracle_parses(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("n = 10\nlevels = 2\np = 2\nseeds = 1\noracle = sampled(50)\n")
        cfg = parse_sweep_config(path)
        assert cfg.oracle_k == 50

    def test_shipped_study_config_has_900_tuples(self):
        cfg = parse_sweep_config("study.cfg")
        assert cfg.run_count == 900
        assert cfg.oracle_k == 200


class TestRunSweep:
    def test_row_count_and_header(self, tmp_path):
        cfg = parse_sweep_config(write_cfg(tmp_path))
        out, computed = run_sweep(cfg)
        lines = out.read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert computed == 12 and len(lines) == 13
        # canonical order: seeds fastest, then p, then levels
        keys = [tuple(int(v) for v in line.split(",")[:4]) for line in lines[1:]]
        assert keys == sorted(keys)

    def test_resume_completed_sweep_is_a_no_op(self, tmp_path):
        cfg = parse_sweep_config(write_cfg(tmp_path))
        out, _ = run_sweep(cfg)
        before = out.read_bytes()
        out2, computed = run_sweep(cfg, resume=True)
        assert computed == 0
        assert out2.read_bytes() == before

    def test_resume_completes_truncated_sweep(self, tmp_path):
        def sans_timings(lines):
            rows = []
            for line in lines:
                cells = line.split(",")
                rows.append(",".join(cells[:11] + cells[13:]))
            return sorted(rows)

        cfg = parse_sweep_config(write_cfg(tmp_path))
        out, _ = run_sweep(cfg)
        full = out.read_text().splitlines()
        out.write_text("\n".join(full[:5]) + "\n")  # keep header + 4 rows
        out2, computed = run_sweep(cfg, resume=True)
        assert computed == 8
        resumed = out2.read_text().splitlines()
        assert sans_timings(resumed) == sans_timings(full)

    def test_resume_recomputes_torn_final_row(self, tmp_path):
        def metrics(text):
            rows = [line.split(",") for line in text.splitlines()]
            return [cells[:11] + cells[13:] for cells in rows]  # drop the two timing columns

        cfg = parse_sweep_config(write_cfg(tmp_path))
        out, _ = run_sweep(cfg)
        clean = out.read_text()
        last = clean.splitlines()[-1]
        cells = last.split(",")
        torn = ",".join(cells[:6] + [cells[6][:3]])  # cut mid-way through max_abs
        out.write_text(clean[: len(clean) - len(last) - 1] + torn)
        _, computed = run_sweep(cfg, resume=True)
        assert computed == 1
        assert metrics(out.read_text()) == metrics(clean)

    def test_resume_refuses_mismatched_config(self, tmp_path):
        cfg = parse_sweep_config(write_cfg(tmp_path))
        run_sweep(cfg)
        other = SweepConfig(
            n_values=(100,),
            l_values=(2, 3),
            p_values=(2, 4, 6),
            seeds=(1, 3),  # differs
            oracle_k=None,
            out=cfg.out,
        )
        with pytest.raises(ConfigError, match="does not match"):
            run_sweep(other, resume=True)

    def test_metric_columns_deterministic_across_executions(self, tmp_path):
        cfg = parse_sweep_config(write_cfg(tmp_path))
        out1, _ = run_sweep(cfg, out_path=tmp_path / "a.csv")
        out2, _ = run_sweep(cfg, out_path=tmp_path / "b.csv")

        def metrics(path):
            rows = []
            for line in path.read_text().splitlines()[1:]:
                cells = line.split(",")
                rows.append(cells[:11] + cells[13:])  # drop the two timing columns
            return rows

        assert metrics(out1) == metrics(out2)

    def test_maps_written_when_requested(self, tmp_path):
        path = write_cfg(
            tmp_path,
            "n = 50\nlevels = 2\np = 4\nseeds = 1\noracle = always\nout = {out}\n",
            out="m.csv",
        )
        cfg = parse_sweep_config(path)
        run_sweep(cfg, write_maps=True)
        maps_dir = tmp_path / "m_maps"
        assert (maps_dir / "map_n50_l2_p4_s1.csv").exists()

    def test_outputs_written_whole_keep_the_mode_of_the_sweep_csv(self, tmp_path):
        path = write_cfg(tmp_path, "n = 50\nlevels = 2\np = 4\nseeds = 1\noracle = always\nout = {out}\n")
        out, _ = run_sweep(parse_sweep_config(path), write_maps=True)
        single = run_single(tmp_path / "single", n=50, levels=2, p=4).out_files
        mode = out.stat().st_mode
        for written in (out.with_name(out.name + ".meta.json"), tmp_path / "rows_maps" / "map_n50_l2_p4_s1.csv", *single):
            assert written.stat().st_mode == mode, written
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_sampled_rows_flag_sample_size(self, tmp_path):
        path = write_cfg(
            tmp_path,
            "n = 300\nlevels = 3\np = 4\nseeds = 1\noracle = sampled(40)\nout = {out}\n",
            out="s.csv",
        )
        out, _ = run_sweep(parse_sweep_config(path))
        row = out.read_text().splitlines()[1].split(",")
        assert row[10] == "40"
        assert out.with_name(out.name + ".meta.json").exists()
        meta = json.loads((out.parent / (out.name + ".meta.json")).read_text())
        assert meta["oracle"] == "sampled(40)"

    @pytest.mark.parametrize("stage", ["content", "rename"])
    def test_failed_map_write_leaves_no_map_and_resume_redoes_its_row(self, tmp_path, monkeypatch, stage):
        def metrics(path):
            return [cells[:11] + cells[13:] for cells in (line.split(",") for line in path.read_text().splitlines())]

        path = write_cfg(
            tmp_path,
            "n = 50\nlevels = 2\np = 4, 6\nseeds = 1\noracle = always\nout = {out}\n",
            out="m.csv",
        )
        cfg = parse_sweep_config(path)
        clean, _ = run_sweep(cfg, out_path=tmp_path / "clean.csv", write_maps=True)
        clean_maps = {p.name: p.read_bytes() for p in (tmp_path / "clean_maps").iterdir()}
        maps_dir = tmp_path / "m_maps"
        first, second = maps_dir / "map_n50_l2_p4_s1.csv", maps_dir / "map_n50_l2_p6_s1.csv"

        if stage == "content":
            # the second map's bins fail after a few have been read, as a full disk would
            class FailsMidMap(np.ndarray):
                reads = 0

                def __getitem__(self, index):
                    FailsMidMap.reads += 1
                    if FailsMidMap.reads > 4:
                        raise OSError("no space left on device")
                    return super().__getitem__(index)

            spatial_map = harness.errorlab.spatial_map

            def failing_spatial_map(report, domain, grid):
                emap = spatial_map(report, domain, grid)
                if first.exists():
                    emap.mean_err = emap.mean_err.view(FailsMidMap)
                return emap

            monkeypatch.setattr(harness.errorlab, "spatial_map", failing_spatial_map)
        else:
            replace = os.replace

            def failing_replace(src, dst):
                if Path(dst) == second:
                    raise OSError("no space left on device")
                replace(src, dst)

            monkeypatch.setattr(os, "replace", failing_replace)

        with pytest.raises(OSError):
            run_sweep(cfg, write_maps=True)
        assert sorted(maps_dir.iterdir()) == [first]
        assert len(metrics(tmp_path / "m.csv")) == 2  # header and the p = 4 row

        monkeypatch.undo()
        out, computed = run_sweep(cfg, resume=True, write_maps=True)
        assert computed == 1
        assert {p.name: p.read_bytes() for p in maps_dir.iterdir()} == clean_maps
        assert metrics(out) == metrics(clean)


def metric_cells(lines):
    """Every column of sweep rows but the two timings."""
    return [cells[:11] + cells[13:] for cells in (line.split(",") for line in lines)]


class TestSweepOracleMemo:
    """Rows of one (n, seed) share its particles, one oracle sample and that sample's one direct call."""

    @staticmethod
    def config(oracle_k):
        return SweepConfig((100, 160), (2, 3), (4, 6), (1, 2), oracle_k=oracle_k)

    @pytest.mark.parametrize("oracle_k", [30, None])
    def test_rows_match_independent_runs_and_each_target_is_summed_once(self, tmp_path, monkeypatch, oracle_k):
        config = self.config(oracle_k)
        cases = [run_case(n, lev, p, seed, oracle_k=oracle_k) for n, lev, p, seed in config.tuples()]
        calls, generated, swept = [], [], []

        def counted(targets, sources, kind):
            calls.append((len(sources), len(targets)))
            return velocity_direct(targets, sources, kind)

        def generating(distribution, n, seed, *args):
            generated.append((n, seed))
            return generate_particles(distribution, n, seed, *args)

        def recording(*args, **kwargs):
            swept.append(run_case(*args, **kwargs))
            return swept[-1]

        monkeypatch.setattr(harness, "velocity_direct", counted)
        monkeypatch.setattr(harness, "generate_particles", generating)
        monkeypatch.setattr(harness, "run_case", recording)
        out, computed = run_sweep(config, tmp_path / "rows.csv")
        rows = out.read_text().splitlines()[1:]
        assert computed == config.run_count
        assert generated == [(100, 1), (100, 2), (160, 1), (160, 2)]
        assert calls == [(n, oracle_k or n) for n, _ in generated]
        assert metric_cells(rows) == metric_cells(case.csv_row() for case in cases)
        # every row of one (n, seed) scores its one sample and reports its one call's time
        first = {}
        for standalone, case, cells in zip(cases, swept, (row.split(",") for row in rows), strict=True):
            positions, t_direct = first.setdefault((case.n, case.seed), (case.report.positions, cells[12]))
            assert len(positions) == (oracle_k or case.n)
            assert case.report.positions.tobytes() == standalone.report.positions.tobytes() == positions.tobytes()
            assert cells[12] == t_direct and float(t_direct) > 0

    def test_resume_refuses_a_sweep_written_under_per_row_samples(self, tmp_path):
        config = self.config(30)
        out, _ = run_sweep(config, tmp_path / "rows.csv")
        meta = out.with_name(out.name + ".meta.json")
        recorded = json.loads(meta.read_text())
        assert recorded.pop("oracle_sample") == "per (n, seed)"
        meta.write_text(json.dumps(recorded))
        written = out.read_bytes()
        with pytest.raises(ConfigError, match="does not match"):
            run_sweep(config, out, resume=True)
        assert out.read_bytes() == written

    def test_resume_inside_an_n_seed_group(self, tmp_path):
        config = self.config(30)
        out, _ = run_sweep(config, tmp_path / "rows.csv")
        full = out.read_text().splitlines()
        # rows (100, 2, 4, 1) ... (100, 3, 4, 1): (n, seed) = (100, 1) is part done
        out.write_text("\n".join(full[:6]) + "\n")
        _, computed = run_sweep(config, out, resume=True)
        resumed = out.read_text().splitlines()
        assert computed == config.run_count - 5
        assert metric_cells(resumed) == metric_cells(full)
        assert all(float(cells[12]) > 0 for cells in (row.split(",") for row in resumed[1:]))


class TestSweepTreeWork:
    """Rows of one (n, l, seed) share its tree, near field and budget gather, which do not depend on p."""

    @staticmethod
    def config(oracle_k=30):
        return SweepConfig((100, 160), (2, 3), (2, 4, 6), (1, 2), oracle_k=oracle_k)

    def test_one_build_and_one_near_field_per_n_l_seed(self, tmp_path, monkeypatch):
        config = self.config()
        # a particle set is told apart by its count and its leftmost position
        seeds = {(n, float(generate_particles(config.distribution, n, seed, UNIT_DOMAIN, config.sigma).x.min())): seed
                 for n in config.n_values for seed in config.seeds}
        built, near = collections.Counter(), collections.Counter()
        build_tree, near_field = engine.build_tree, engine.near_field

        def counted_build(particles, levels, domain):
            built[len(particles), levels, seeds[len(particles), float(particles.x.min())]] += 1
            return build_tree(particles, levels, domain)

        def counted_near(tree, z_sorted, *args):
            near[len(z_sorted), tree.levels, seeds[len(z_sorted), float(z_sorted.real.min())]] += 1
            return near_field(tree, z_sorted, *args)

        monkeypatch.setattr(engine, "build_tree", counted_build)
        monkeypatch.setattr(engine, "near_field", counted_near)
        _, computed = run_sweep(config, tmp_path / "rows.csv")
        groups = {(n, lev, seed): 1 for n, lev, _, seed in config.tuples()}
        assert computed == config.run_count == 3 * len(groups)
        assert built == near == groups

    def test_one_budget_gather_per_n_l_seed_and_standalone_budgets(self, tmp_path, monkeypatch):
        config = self.config()
        # a particle set is told apart by its count and its smallest circulation
        seeds = {(n, float(generate_particles(config.distribution, n, seed, UNIT_DOMAIN, config.sigma).gamma.min())): seed
                 for n in config.n_values for seed in config.seeds}
        gathers, rows = collections.Counter(), []
        gather, budgets = engine._budget_gather, harness.bound_budgets

        def counted_gather(tree, gamma_sorted):
            gathers[len(gamma_sorted), tree.levels, seeds[len(gamma_sorted), float(gamma_sorted.min())]] += 1
            return gather(tree, gamma_sorted)

        def recorded_budgets(tree, gamma, order, **kwargs):
            rows.append((tree, gamma, order, budgets(tree, gamma, order, **kwargs)))
            return rows[-1][-1]

        monkeypatch.setattr(engine, "_budget_gather", counted_gather)
        monkeypatch.setattr(harness, "bound_budgets", recorded_budgets)
        run_sweep(config, tmp_path / "rows.csv")
        assert gathers == {(n, lev, seed): 1 for n, lev, _, seed in config.tuples()}
        assert len(rows) == config.run_count
        monkeypatch.setattr(engine, "_budget_gather", gather)
        for tree, gamma, order, got in rows:
            assert got.tobytes() == engine.bound_budgets(tree, gamma, order).tobytes()

    @pytest.mark.parametrize("oracle_k", [30, None])
    def test_rows_and_maps_match_independent_runs(self, tmp_path, oracle_k):
        config = self.config(oracle_k)
        cases = [run_case(n, lev, p, seed, oracle_k=oracle_k) for n, lev, p, seed in config.tuples()]
        out, _ = run_sweep(config, tmp_path / "rows.csv", write_maps=True)
        assert metric_cells(out.read_text().splitlines()[1:]) == metric_cells(case.csv_row() for case in cases)
        for case in cases:
            emap = errors.spatial_map(case.report, UNIT_DOMAIN, config.map_grid)
            written = tmp_path / "rows_maps" / f"map_n{case.n}_l{case.levels}_p{case.p}_s{case.seed}.csv"
            assert written.read_text() == errors.error_map_text(emap)

    def test_resume_inside_an_n_l_seed_group(self, tmp_path):
        config = self.config()
        out, _ = run_sweep(config, tmp_path / "rows.csv")
        full = out.read_text().splitlines()
        # rows (100, 2, 2, 1), (100, 2, 2, 2), (100, 2, 4, 1): (100, 2, 1) has p = 6 left, (100, 2, 2) p = 4 and 6
        out.write_text("\n".join(full[:4]) + "\n")
        _, computed = run_sweep(config, out, resume=True)
        assert computed == config.run_count - 3
        assert metric_cells(out.read_text().splitlines()) == metric_cells(full)

    def test_every_row_pays_its_groups_recorded_build_and_near_field(self, tmp_path, monkeypatch):
        config = self.config()
        calls = []

        order_run = engine._order_run

        def recording(work, order):
            result = order_run(work, order)
            calls.append(result[1])
            return result

        monkeypatch.setattr(engine, "_order_run", recording)
        out, _ = run_sweep(config, tmp_path / "rows.csv")
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        recorded = {}
        for (n, lev, _, seed), cells, stats in zip(config.tuples(), rows, calls, strict=True):
            t_build, t_near = recorded.setdefault((n, lev, seed), (stats.t_build, stats.t_near))
            assert (stats.t_build, stats.t_near) == (t_build, t_near)
            # a standalone run's cost: every phase, those this row took from its group included
            assert stats.t_total >= t_build + t_near + stats.t_upward + stats.t_m2l + stats.t_downward + stats.t_eval
            assert float(cells[11]) >= float(format(t_near * 1e3, ".3f"))


class TestRunSingle:
    def test_writes_three_files(self, tmp_path):
        summary = run_single(tmp_path, n=120, levels=2, p=6, seed=1)
        for path in summary.out_files:
            assert path.exists()
        assert summary.max_rel < 0.5
        assert "max_rel=" in summary.line()

    def test_high_order_summary_reaches_oracle_floor(self, tmp_path):
        summary = run_single(tmp_path, n=1000, levels=3, p=30, seed=1)
        assert summary.max_rel <= 1e-10

    def test_particle_file_override(self, tmp_path):
        rc = cli.main(["gen", "--n", "80", "--seed", "3", "--out", str(tmp_path / "pts.csv")])
        assert rc == 0
        assert len(read_particles(tmp_path / "pts.csv")) == 80
        summary = run_single(
            tmp_path / "out",
            levels=2,
            p=8,
            particles_path=tmp_path / "pts.csv",
        )
        lines = summary.out_files[0].read_text().splitlines()
        assert len(lines) == 81


class TestTiming:
    def test_structure_and_extrapolation_flags(self, tmp_path):
        rows = timing_study(
            [64, 128, 256],
            p=3,
            levels=2,
            repeats=1,
            direct_cutoff=128,
            out_path=tmp_path / "t.csv",
        )
        assert [r.n for r in rows] == [64, 128, 256]
        assert [r.direct_extrapolated for r in rows] == [False, False, True]
        assert all(r.t_fmm_ms > 0 and r.t_direct_ms > 0 for r in rows)
        text = (tmp_path / "t.csv").read_text().splitlines()
        assert text[0] == "n,l,p,t_fmm_ms,t_direct_ms,direct_extrapolated"
        assert len(text) == 4

    def test_extrapolated_direct_time_positive_for_flat_measurements(self, monkeypatch):
        def constant_cost(positions, particles, kind):
            time.sleep(0.002)
            return np.zeros((len(positions), 2))

        monkeypatch.setattr(harness, "velocity_direct", constant_cost)
        rows = timing_study([64, 128, 256, 512], p=3, levels=2, repeats=1, direct_cutoff=128)
        assert [r.direct_extrapolated for r in rows] == [False, False, True, True]
        assert all(r.t_direct_ms > 0 for r in rows)

    @pytest.mark.parametrize(
        "t_fmm, last",
        [
            ((5.0, 3.0, 4.0), "fast evaluation wins from n = 128 on (direct timings extrapolated above n = 8192)"),
            ((5.0, 9.0, 40.0), "no crossover in the scanned range"),
        ],
    )
    def test_cli_prints_the_crossover_after_the_table(self, tmp_path, capsys, monkeypatch, t_fmm, last):
        rows = [TimingRow(n, 2, 3, t, t_direct, False) for n, t, t_direct in zip((64, 128, 256), t_fmm, (1.0, 4.0, 16.0))]
        monkeypatch.setattr(harness, "timing_study", lambda *args, **kwargs: rows)
        assert cli.main(["timing", "--out", str(tmp_path / "t.csv")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [harness.TIMING_HEADER, *(r.csv_row() for r in rows), last, f"wrote {tmp_path / 't.csv'}"]

    @pytest.mark.parametrize(
        "args, named",
        [(["--n-list", ""], "n_values"), (["--n-list", "64", "--repeats", "0"], "repeats")],
    )
    def test_empty_or_zero_input_is_named(self, tmp_path, capsys, args, named):
        assert cli.main(["timing", *args, "--out", str(tmp_path / "t.csv")]) == 2
        assert named in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_one_untimed_evaluation_per_n_before_the_timed_repeats(self, monkeypatch):
        totals = collections.defaultdict(list)
        evaluate = harness.evaluate

        def recorded(particles, config, domain):
            result = evaluate(particles, config, domain)
            totals[len(particles)].append(result[1].t_total)
            return result

        monkeypatch.setattr(harness, "evaluate", recorded)
        rows = timing_study([64, 128], p=3, levels=2, repeats=3, direct_cutoff=128)
        assert {n: len(t) for n, t in totals.items()} == {64: 4, 128: 4}
        for row in rows:
            assert row.t_fmm_ms == sorted(totals[row.n][1:])[1] * 1e3

    def test_occupancy_policy(self):
        assert occupancy_levels(256, 8) == 3
        assert occupancy_levels(512, 8) == 3
        assert occupancy_levels(1024, 8) == 4
        assert occupancy_levels(16, 8) == 2  # clamped at the minimum depth
        assert occupancy_levels(32768, 8) == 6


class TestCli:
    def test_single_end_to_end(self, tmp_path, capsys):
        rc = cli.main(
            [
                "single",
                "--n",
                "150",
                "--levels",
                "3",
                "--p",
                "8",
                "--seed",
                "1",
                "--distribution",
                "uniform_random",
                "--kernel",
                "point",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "max_rel=" in out and "t_fmm/t_direct=" in out
        assert (tmp_path / "velocities.csv").exists()
        assert (tmp_path / "error_report.csv").exists()
        assert (tmp_path / "error_map.csv").exists()

    def test_bad_particle_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        path.write_text("x,y,gamma,sigma\n0.1,0.2,nan,0.01\n0.5,0.5,0.3,0.01\n")
        rc = cli.main(["single", "--particles", str(path), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert ":2:" in capsys.readouterr().err

    def test_usage_error_exit_2(self, tmp_path, capsys):
        rc = cli.main(["single", "--n", "50", "--levels", "1", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_bad_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("nope = 1\n")
        assert cli.main(["sweep", str(path)]) == 2

    def test_missing_config_exit_3(self, tmp_path):
        assert cli.main(["sweep", str(tmp_path / "missing.cfg")]) == 3

    def test_sweep_cli_runs(self, tmp_path, capsys):
        path = tmp_path / "tiny.cfg"
        path.write_text(
            f"n = 60\nlevels = 2\np = 2, 4\nseeds = 1\noracle = always\nout = {tmp_path/'r.csv'}\n"
        )
        assert cli.main(["sweep", str(path), "--quiet"]) == 0
        assert (tmp_path / "r.csv").exists()

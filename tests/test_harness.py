import collections
import dataclasses
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from test_engine import run_isolated
from vortexfmm import cli, engine, errors, harness
from vortexfmm.engine import FmmConfig, bound_budgets, evaluate
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
from vortexfmm.kernels import KernelKind, velocity_direct
from vortexfmm.model import (
    DEFAULT_SIGMA,
    UNIT_DOMAIN,
    Domain,
    enclosing_domain,
    generate_particles,
    read_particles,
    write_particles,
)
from vortexfmm.quadtree import build_tree, grid_indices

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
        # a non-integral count, depth, order, sample size or map grid, and a blob core whose 2 sigma^2
        # underflows, were accepted and failed (or gave NaN) only after the header was written
        for change, key in (({"sigma": 0.0}, "sigma"), ({"oracle_k": 0}, "oracle"), ({"p_values": (61,)}, "p"),
                            ({"n_values": (100.5,)}, "n"), ({"l_values": (2.5,)}, "levels"),
                            ({"p_values": (True,)}, "p"), ({"oracle_k": 2.5}, "oracle"), ({"oracle_k": True}, "oracle"),
                            ({"map_grid": 2.5}, "map_grid"),
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


def standalone_runs(config):
    """One run per tuple of ``config``, each on a particle set of its own, as a run outside a sweep makes."""
    runs = []
    for n, lev, p, seed in config.tuples():
        particle_set = harness._ParticleSet.generated(
            config.distribution, n, seed, config.kernel, config.sigma, config.oracle_k
        )
        runs.append(run_case(particle_set, lev, p))
    return runs


class TestSweepOracleMemo:
    """Rows of one (n, seed) share its particles, one oracle sample and that sample's one direct call."""

    @staticmethod
    def config(oracle_k):
        return SweepConfig((100, 160), (2, 3), (4, 6), (1, 2), oracle_k=oracle_k)

    @pytest.mark.parametrize("oracle_k", [30, None])
    def test_rows_match_independent_runs_and_each_target_is_summed_once(self, tmp_path, monkeypatch, oracle_k):
        config = self.config(oracle_k)
        cases = standalone_runs(config)
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
        # every row of one (n, seed) runs on its one set, scores its one sample and reports its one call's time
        first = {}
        for (n, _, _, seed), standalone, case, cells in zip(
            config.tuples(), cases, swept, (row.split(",") for row in rows), strict=True
        ):
            positions, t_direct, shared = first.setdefault(
                (n, seed), (case.report.positions, cells[12], case.particle_set)
            )
            assert case.particle_set is shared
            assert len(positions) == (oracle_k or n)
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

    def test_a_sampled_study_sweep_never_makes_the_chunk_pool(self, tmp_path):
        # no M2L pass of the shipped study's seed-1 sweep holds two full
        # chunks, so every near field stays on the calling thread, as it was
        # before the pool took any, and no pool thread is started
        study = Path(__file__).resolve().parents[1] / "study.cfg"
        stdout = run_isolated(f"""
            import dataclasses
            from vortexfmm import engine, harness
            config = dataclasses.replace(harness.parse_sweep_config({str(study)!r}), seeds=(1,))
            harness.run_sweep(config, {str(tmp_path / "study.csv")!r})
            print(engine._pool)
        """)
        assert stdout == "None\n"

    def test_a_pooled_pass_keeps_the_near_field_on_the_callers_thread(self, monkeypatch):
        # a particle set's first stage serves every order of its depth, so it
        # keeps its near field inline even where the pass at its order is
        # pooled and an evaluate at that order would hand it to the pool
        particle_set = harness._ParticleSet.generated("uniform_random", 4096, 1, "point", DEFAULT_SIGMA, None)
        threads, near_field = [], engine.near_field

        def recorded(*args):
            threads.append(threading.get_ident())
            return near_field(*args)

        monkeypatch.setattr(engine, "near_field", recorded)
        with ThreadPoolExecutor(1) as pool:
            monkeypatch.setattr(engine, "_chunk_pool", lambda: (pool, 1))
            case = run_case(particle_set, 6, 40)
            work = particle_set.work
            assert engine._overlaps(work.live, 40, engine._near_pairs(work.tree, work.at)[1])
            assert threads == [threading.get_ident()]
            assert case.velocities.tobytes() == evaluate(particle_set.particles, FmmConfig(6, 40), UNIT_DOMAIN)[0].tobytes()
        assert len(threads) == 2 and threads[1] != threading.get_ident()

    def test_one_budget_gather_per_n_l_seed_and_standalone_budgets(self, tmp_path, monkeypatch):
        config = self.config()
        # a particle set is told apart by its count and its smallest circulation
        seeds = {(n, float(generate_particles(config.distribution, n, seed, UNIT_DOMAIN, config.sigma).gamma.min())): seed
                 for n in config.n_values for seed in config.seeds}
        gathers, sums, rows = collections.Counter(), [], []
        gather, budgets_at, case_of = engine._budget_gather, engine._budgets_at, harness.run_case

        def counted_gather(tree, gamma_sorted, live=None):
            gathers[len(gamma_sorted), tree.levels, seeds[len(gamma_sorted), float(gamma_sorted.min())]] += 1
            return gather(tree, gamma_sorted, live)

        def counted_budgets(tree, gathered, order, at):
            sums.append(order)
            return budgets_at(tree, gathered, order, at)

        def recorded_case(particle_set, levels, p):
            rows.append((particle_set, levels, p, case_of(particle_set, levels, p)))
            return rows[-1][-1]

        monkeypatch.setattr(engine, "_budget_gather", counted_gather)
        monkeypatch.setattr(engine, "_budgets_at", counted_budgets)
        monkeypatch.setattr(harness, "run_case", recorded_case)
        run_sweep(config, tmp_path / "rows.csv")
        assert gathers == {(n, lev, seed): 1 for n, lev, _, seed in config.tuples()}
        assert sums == [p for _, _, p, _ in config.tuples()]
        monkeypatch.setattr(engine, "_budget_gather", gather)
        for particle_set, levels, p, case in rows:
            tree = build_tree(particle_set.particles, levels, particle_set.domain)
            want = engine.bound_budgets(tree, particle_set.particles.gamma, p)[particle_set.sample]
            assert case.report.bound_budget.tobytes() == want.tobytes()

    def test_one_p2m_per_n_l_seed_at_the_largest_order(self, tmp_path, monkeypatch):
        config = self.config()
        seeds = {(n, float(generate_particles(config.distribution, n, seed, UNIT_DOMAIN, config.sigma).gamma.min())): seed
                 for n in config.n_values for seed in config.seeds}
        p2m = collections.Counter()
        leaf_multipoles = engine._leaf_multipoles

        def counted(tree, delta, gamma_sorted, order):
            p2m[len(gamma_sorted), tree.levels, seeds[len(gamma_sorted), float(gamma_sorted.min())], order] += 1
            return leaf_multipoles(tree, delta, gamma_sorted, order)

        monkeypatch.setattr(engine, "_leaf_multipoles", counted)
        run_sweep(config, tmp_path / "rows.csv")
        assert p2m == {(n, lev, seed, max(config.p_values)): 1 for n, lev, _, seed in config.tuples()}

    @pytest.mark.parametrize("oracle_k", [30, None])
    def test_a_run_above_the_held_order_gives_a_fresh_sets_row(self, oracle_k):
        def fresh():
            return harness._ParticleSet.generated("gaussian_patch", 300, 2, "point", DEFAULT_SIGMA, oracle_k)

        particle_set = fresh()
        # p = 5 and p = 12 each make the first stage again at their order, which p = 2 then takes a prefix of
        for p, held in ((4, 4), (5, 5), (12, 12), (2, 12)):
            case, want = run_case(particle_set, 4, p), run_case(fresh(), 4, p)
            assert particle_set.work.leaves.shape[1] == held + 1
            assert metric_cells([case.csv_row()]) == metric_cells([want.csv_row()])
            assert case.velocities.tobytes() == want.velocities.tobytes()
            assert case.report.bound_budget.tobytes() == want.report.bound_budget.tobytes()

    @pytest.mark.parametrize("oracle_k", [30, None])
    def test_rows_and_maps_match_independent_runs(self, tmp_path, oracle_k):
        config = self.config(oracle_k)
        cases = standalone_runs(config)
        out, _ = run_sweep(config, tmp_path / "rows.csv", write_maps=True)
        assert metric_cells(out.read_text().splitlines()[1:]) == metric_cells(case.csv_row() for case in cases)
        for (n, lev, p, seed), case in zip(config.tuples(), cases, strict=True):
            emap = errors.spatial_map(case.report, UNIT_DOMAIN, config.map_grid)
            written = tmp_path / "rows_maps" / f"map_n{n}_l{lev}_p{p}_s{seed}.csv"
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


class TestSampledRows:
    """A sampled row evaluates the FMM at its oracle sample alone; its metric columns are unchanged."""

    def test_one_blas_thread_sampled_rows_are_the_full_evaluation_at_the_sample(self):
        stdout = run_isolated("""
            from vortexfmm import engine, harness
            from vortexfmm.model import DEFAULT_SIGMA, UNIT_DOMAIN
            for kernel in ("point", "gaussian"):
                for distribution in ("uniform_random", "gaussian_patch"):
                    particle_set = harness._ParticleSet.generated(distribution, 1500, 3, kernel, DEFAULT_SIGMA, 97)
                    for levels in (2, 3, 4, 5):
                        for p in (0, 12, 40):
                            case = harness.run_case(particle_set, levels, p)
                            want, stats = engine.evaluate(particle_set.particles,
                                                          engine.FmmConfig(levels, p, particle_set.kind), UNIT_DOMAIN)
                            if (case.velocities.tobytes() != want[particle_set.sample].tobytes()
                                    or (case.stats.m2l_count, case.stats.near_pair_count) != (stats.m2l_count, stats.near_pair_count)):
                                print(kernel, distribution, levels, p)
            print("done")
        """, OPENBLAS_NUM_THREADS="1")
        assert stdout == "done\n"

    @pytest.mark.parametrize("kernel", ["point", "gaussian"])
    @pytest.mark.parametrize("distribution", ["uniform_random", "gaussian_patch"])
    def test_sampled_rows_budgets_are_the_full_budgets_at_the_sample(self, kernel, distribution):
        # one target leaves a single live column per level and class that holds it
        for oracle_k in (97, 1):
            particle_set = harness._ParticleSet.generated(distribution, 1500, 3, kernel, DEFAULT_SIGMA, oracle_k)
            for levels in (2, 3, 4, 5):
                tree = build_tree(particle_set.particles, levels, UNIT_DOMAIN)
                for p in (0, 12, 40):
                    want = bound_budgets(tree, particle_set.particles.gamma, p)[particle_set.sample]
                    got = run_case(particle_set, levels, p).report.bound_budget
                    assert got.tobytes() == want.tobytes(), (oracle_k, levels, p)

    @pytest.mark.parametrize("oracle_k", [30, None])
    def test_near_and_far_field_see_only_the_scored_targets(self, tmp_path, monkeypatch, oracle_k):
        config = SweepConfig((100, 160), (2, 3), (2, 4), (1, 2), oracle_k=oracle_k)
        near, far = [], []
        near_field, far_field = engine.near_field, engine.far_field

        def counted_near(tree, z_sorted, *args):
            near.append((len(z_sorted), tree.levels, len(args[-1])))
            return near_field(tree, z_sorted, *args)

        def counted_far(work, locals_):
            far.append((work.at.levels, len(work.zt_delta)))
            return far_field(work, locals_)

        monkeypatch.setattr(engine, "near_field", counted_near)
        monkeypatch.setattr(engine, "far_field", counted_far)
        run_sweep(config, tmp_path / "rows.csv")
        groups = dict.fromkeys((n, lev, seed) for n, lev, _, seed in config.tuples())
        assert near == [(n, lev, oracle_k or n) for n, lev, _ in groups]
        assert far == [(lev, oracle_k or n) for n, lev, _, _ in config.tuples()]

    def test_m2l_of_a_sampled_depth_5_row_fills_only_the_cells_of_its_sample(self, monkeypatch):
        particle_set = harness._ParticleSet.generated("uniform_random", 4096, 1, "point", DEFAULT_SIGMA, 200)
        dests = []
        chunk = engine._translate_chunk

        def recording(mult, ids, stacked, loc, dest):
            dests.append(dest.copy())
            return chunk(mult, ids, stacked, loc, dest)

        monkeypatch.setattr(engine, "_translate_chunk", recording)
        case = run_case(particle_set, 5, 8)
        x, y = particle_set.targets.T
        live = [engine._level_start(level) + np.unique(iy * 2**level + ix)
                for level in range(2, 6) for ix, iy in [grid_indices(x, y, 2**level, UNIT_DOMAIN)]]
        assert np.sort(np.concatenate(dests)).tolist() == np.concatenate(live).tolist()
        assert len(np.concatenate(live)) < 0.4 * engine._level_start(6)
        assert len(case.velocities) == 200
        # the count is still that of translations into every cell
        assert case.stats.m2l_count == evaluate(particle_set.particles, FmmConfig(5, 8), UNIT_DOMAIN)[1].m2l_count


class TestRunSingle:
    def test_writes_three_files(self, tmp_path):
        summary = run_single(tmp_path, n=120, levels=2, p=6, seed=1)
        for path in summary.out_files:
            assert path.exists()
        assert summary.case.report.max_rel < 0.5
        assert "max_rel=" in summary.line()

    def test_high_order_summary_reaches_oracle_floor(self, tmp_path):
        summary = run_single(tmp_path, n=1000, levels=3, p=30, seed=1)
        assert summary.case.report.max_rel <= 1e-10

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

    @pytest.mark.parametrize("source", ["generated", "file"])
    def test_written_values_are_the_evaluation_the_oracle_and_the_budgets(self, tmp_path, source):
        levels, p = 3, 10
        if source == "generated":
            kwargs = {"n": 300, "seed": 4, "distribution": "gaussian_patch", "kernel": "gaussian"}
            particles, domain = generate_particles("gaussian_patch", 300, 4, UNIT_DOMAIN, DEFAULT_SIGMA), UNIT_DOMAIN
            kind = KernelKind.GAUSSIAN_BLOB
        else:
            path = tmp_path / "pts.csv"
            write_particles(path, generate_particles("uniform_random", 300, 4, Domain(-2.0, -1.0, 3.0)))
            kwargs, particles = {"particles_path": path}, read_particles(path)
            domain, kind = enclosing_domain(particles), KernelKind.POINT_VORTEX
        vel_path, rep_path, _ = run_single(tmp_path / "out", levels=levels, p=p, **kwargs).out_files
        positions = np.stack((particles.x, particles.y), axis=1)
        fmm, _ = evaluate(particles, FmmConfig(levels, p, kind), domain)
        direct = velocity_direct(positions, particles, kind)
        budgets = bound_budgets(build_tree(particles, levels, domain), particles.gamma, p)

        # 17 significant digits round-trip, so the parsed values are the computed bits
        vel_lines, rep_lines = vel_path.read_text().splitlines(), rep_path.read_text().splitlines()
        assert vel_lines[0] == "index,x,y,u_fmm,v_fmm,u_direct,v_direct"
        assert rep_lines[0] == "index,x,y,abs_err,f_abs_err,budget"
        velocities = np.array([[float(v) for v in line.split(",")] for line in vel_lines[1:]])
        report = [line.split(",") for line in rep_lines[1:]]
        assert velocities[:, 0].tolist() == [int(cells[0]) for cells in report] == list(range(len(particles)))
        assert velocities[:, 1:3].tobytes() == positions.tobytes()
        assert velocities[:, 3:5].tobytes() == fmm.tobytes()
        assert velocities[:, 5:7].tobytes() == direct.tobytes()
        assert np.array([[float(cells[1]), float(cells[2])] for cells in report]).tobytes() == positions.tobytes()
        # the budget column carries 10 significant digits: the text is the budget's, digit for digit
        assert [cells[5] for cells in report] == [format(b, ".10g") for b in budgets]

    @pytest.mark.parametrize("token", ["gaussian_blob", "blob"])
    def test_unknown_kernel_token_is_a_value_error_and_writes_nothing(self, tmp_path, token):
        with pytest.raises(ValueError, match="expected point or gaussian"):
            run_single(tmp_path / "out", n=50, levels=2, p=4, kernel=token)
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ValueError, match="expected point or gaussian"):
            harness._ParticleSet.generated("uniform_random", 50, 1, token, DEFAULT_SIGMA, None)

    @pytest.mark.parametrize("bad", [{"map_grid": 0}, {"levels": 1}, {"p": 61}, {"kernel": "blob"}])
    def test_bad_input_fails_before_any_particle_or_oracle_call(self, tmp_path, monkeypatch, bad):
        calls = collections.Counter()

        def counted(name, function):
            def call(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return call

        for name in ("velocity_direct", "generate_particles"):
            monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
        with pytest.raises(ValueError):
            run_single(tmp_path / "out", **{"n": 500, "levels": 3, "p": 8, **bad})
        assert calls == {}
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("map_grid", [2.5, True])
    def test_non_integer_map_grid_fails_before_any_particle_is_made(self, tmp_path, monkeypatch, map_grid):
        # 2.5 ran the oracle and the whole evaluation before the map failed, and True made a 1 x 1 map
        made = []
        monkeypatch.setattr(harness, "generate_particles", lambda *args: made.append(args))
        with pytest.raises(TypeError, match="map_grid must be an integer"):
            run_single(tmp_path / "out", n=500, levels=3, p=8, map_grid=map_grid)
        assert made == []
        assert list(tmp_path.iterdir()) == []

    def test_malformed_particle_file_fails_before_the_output_directory_is_made(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y,gamma,sigma\n0.1,0.2,nan,0.01\n0.5,0.5,0.3,0.01\n")
        with pytest.raises(ValueError, match=":2:"):
            run_single(tmp_path / "out", levels=2, p=4, particles_path=path)
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("repeats", [2.5, True])
    def test_non_integer_repeats_fail_before_any_evaluation(self, tmp_path, monkeypatch, repeats):
        # 2.5 failed only after the first evaluation, and True ran as one repeat
        calls = []
        monkeypatch.setattr(harness, "evaluate", lambda *args: calls.append(args))
        with pytest.raises(TypeError, match="repeats must be an integer"):
            timing_study([64], p=3, levels=2, repeats=repeats, out_path=tmp_path / "t.csv")
        assert calls == []
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

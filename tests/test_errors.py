import math

import numpy as np
import pytest

from vortexfmm.errors import bound_check, compare, error_map_text, spatial_map
from vortexfmm.model import Domain

UNIT = Domain(0.0, 0.0, 1.0)
TWO_PI = 2.0 * math.pi


def make_report(rng, n=100):
    positions = rng.uniform(0, 1, size=(n, 2))
    direct = rng.standard_normal((n, 2))
    fmm = direct + 1e-6 * rng.standard_normal((n, 2))
    return compare(fmm, direct, positions), fmm, direct, positions


class TestCompare:
    def test_identical_inputs_give_zero_metrics(self, rng):
        vel = rng.standard_normal((20, 2))
        pos = rng.uniform(0, 1, size=(20, 2))
        rep = compare(vel, vel, pos)
        assert rep.max_abs == 0.0 and rep.rms_abs == 0.0
        assert rep.max_rel == 0.0 and rep.rms_rel == 0.0

    def test_single_target_arithmetic(self):
        rep = compare([[0.0, 1.0]], [[0.0, 0.9]], [[0.5, 0.5]])
        assert rep.max_abs == pytest.approx(0.1, rel=1e-12)
        assert rep.max_rel == pytest.approx(0.1 / 0.9, rel=1e-12)
        assert rep.worst_index == 0

    def test_metrics_match_independent_loop(self, rng):
        rep, fmm, direct, positions = make_report(rng)
        # independent recomputation, plain python loop
        errs = []
        speeds = []
        for (fu, fv), (du, dv) in zip(fmm, direct):
            errs.append(math.hypot(fu - du, fv - dv))
            speeds.append(math.hypot(du, dv))
        assert rep.max_abs == max(errs)
        assert rep.max_rel == max(errs) / max(speeds)
        assert rep.rms_abs == pytest.approx(
            math.sqrt(sum(e * e for e in errs) / len(errs)), rel=1e-15
        )
        assert rep.worst_index == int(np.argmax(errs))
        np.testing.assert_array_equal(rep.f_abs_errors, TWO_PI * rep.abs_errors)

    def test_zero_direct_field_marks_relative_metrics(self):
        rep = compare([[0.1, 0.0]], [[0.0, 0.0]], [[0.5, 0.5]])
        assert math.isnan(rep.max_rel) and math.isnan(rep.rms_rel)
        assert rep.max_abs == pytest.approx(0.1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compare([[0, 0]], [[0, 0], [1, 1]], [[0.5, 0.5]])

    def test_permuting_targets_leaves_scalar_metrics_unchanged(self, rng):
        rep, fmm, direct, positions = make_report(rng)
        perm = rng.permutation(len(positions))
        rep2 = compare(fmm[perm], direct[perm], positions[perm])
        assert rep2.max_abs == rep.max_abs
        assert rep2.max_rel == rep.max_rel
        assert rep2.rms_abs == pytest.approx(rep.rms_abs, rel=1e-14)

    def test_rms_below_max(self, rng):
        rep, *_ = make_report(rng, 200)
        assert rep.rms_abs <= rep.max_abs


class TestSpatialMap:
    def test_all_targets_in_one_bin(self):
        pos = np.full((10, 2), 0.55)
        fmm = np.zeros((10, 2))
        fmm[:, 0] = np.linspace(0.1, 1.0, 10)
        rep = compare(fmm, np.zeros((10, 2)), pos)
        emap = spatial_map(rep, UNIT, 4)
        assert emap.counts[2, 2] == 10
        assert emap.max_err[2, 2] == rep.max_abs
        assert emap.counts.sum() == 10
        assert np.isnan(emap.max_err[0, 0])

    def test_single_bin_equals_global_metrics(self, rng):
        rep, *_ = make_report(rng)
        emap = spatial_map(rep, UNIT, 1)
        assert emap.max_err[0, 0] == rep.max_abs
        assert emap.mean_err[0, 0] == pytest.approx(rep.abs_errors.mean(), rel=1e-14)

    def test_bins_match_brute_force_filter(self, rng):
        rep, *_ = make_report(rng, 300)
        g = 8
        emap = spatial_map(rep, UNIT, g)
        for iy in range(g):
            for ix in range(g):
                sel = np.flatnonzero(
                    (np.floor(rep.positions[:, 0] * g).clip(max=g - 1) == ix)
                    & (np.floor(rep.positions[:, 1] * g).clip(max=g - 1) == iy)
                )
                assert emap.counts[iy, ix] == len(sel)
                if len(sel):
                    assert emap.max_err[iy, ix] == rep.abs_errors[sel].max()
                    assert emap.mean_err[iy, ix] == pytest.approx(
                        rep.abs_errors[sel].mean(), rel=1e-13
                    )

    def test_refinement_preserves_global_max(self, rng):
        rep, *_ = make_report(rng, 500)
        for g in (2, 4, 8, 16):
            emap = spatial_map(rep, UNIT, g)
            assert np.nanmax(emap.max_err) == rep.max_abs

    def test_rejects_bad_grid(self, rng):
        rep, *_ = make_report(rng, 10)
        with pytest.raises(ValueError):
            spatial_map(rep, UNIT, 0)


class TestBoundCheck:
    def test_infinite_budgets_no_violations(self, rng):
        _, fmm, direct, positions = make_report(rng)
        rep = compare(fmm, direct, positions, np.full(len(positions), np.inf))
        assert bound_check(rep) == []

    def test_zero_observed_no_violations(self, rng):
        pos = rng.uniform(0, 1, size=(10, 2))
        vel = rng.standard_normal((10, 2))
        rep = compare(vel, vel, pos, np.zeros(10))
        assert bound_check(rep) == []

    def test_violations_identify_targets(self, rng):
        _, fmm, direct, positions = make_report(rng, 10)
        budgets = np.full(10, np.inf)
        budgets[3] = 0.0  # every nonzero error at index 3 violates
        rep = compare(fmm, direct, positions, budgets)
        out = bound_check(rep)
        assert len(out) == 1 and out[0][0] == 3
        assert out[0][1] == rep.f_abs_errors[3] and out[0][2] == 0.0

    def test_requires_budgets_somewhere(self, rng):
        rep, *_ = make_report(rng, 5)
        with pytest.raises(ValueError):
            bound_check(rep)


class TestMapCsv:
    def test_header_na_tokens_and_row_major_order(self, rng):
        pos = np.array([[0.1, 0.1], [0.9, 0.9], [0.85, 0.9]])
        fmm = np.array([[0.1, 0.0], [0.0, 0.2], [0.0, 0.1]])
        rep = compare(fmm, np.zeros((3, 2)), pos)
        emap = spatial_map(rep, UNIT, 2)
        text = error_map_text(emap)
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines[0] == "bin_ix,bin_iy,count,max_err,mean_err"
        assert len(lines) == 5
        assert lines[1].startswith("0,0,1,")
        assert lines[2] == "1,0,0,NA,NA"
        assert lines[3] == "0,1,0,NA,NA"
        assert lines[4].startswith("1,1,2,")

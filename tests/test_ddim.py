"""Diffusion-step arithmetic: inverses, telescoping, guidance, trajectories."""

import zlib

import numpy as np
import pytest

from anchorkit.core import ConfigError, DimensionError, seeded_rng
from anchorkit.ddim import (
    ConstantPredictor,
    DiffusionSchedule,
    GuidedPredictor,
    LinearPredictor,
    TimeOnlyPredictor,
    ZeroPredictor,
    cfg_combine,
    denoise_step,
    invert_step,
    linear_beta_schedule,
    run_trajectory,
    save_trajectory,
)


class TestSchedule:
    def test_default_schedule_shape(self):
        sched = linear_beta_schedule(50)
        assert sched.n_steps == 50
        assert sched.alphas[0] == 1.0
        assert np.all(np.diff(sched.alphas) < 0)
        assert np.all(sched.alphas > 0)

    def test_rejects_non_decreasing(self):
        with pytest.raises(ConfigError):
            DiffusionSchedule(np.array([1.0, 0.5, 0.5]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            DiffusionSchedule(np.array([1.2, 0.5]))
        with pytest.raises(ConfigError):
            DiffusionSchedule(np.array([1.0, -0.1]))


class TestDenoiseStep:
    def test_zero_noise_hand_case(self):
        """alpha pair (1.0, 0.25), eps = 0: the state doubles."""
        sched = DiffusionSchedule(np.array([1.0, 0.25]))
        out = denoise_step(np.array([1.0, 1.0]), 1, sched, ZeroPredictor())
        np.testing.assert_allclose(out, [2.0, 2.0], rtol=1e-15)

    def test_flat_alphas_are_identity(self):
        """Equal neighboring alphas: scale 1, noise weight 0."""
        sched = DiffusionSchedule(np.array([0.9, 0.5, 0.49999]))
        rng = seeded_rng(0)
        z = rng.standard_normal(6)
        eps = ConstantPredictor(rng.standard_normal(6))
        out = denoise_step(z, 2, sched, eps)
        # nearly-equal alphas: nearly identity; exercise the exact formula
        expected = np.sqrt(0.5 / 0.49999) * z + (
            np.sqrt(1 / 0.5 - 1) - np.sqrt(1 / 0.49999 - 1)
        ) * eps.noise
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_linear_in_state_with_linear_predictor(self):
        sched = linear_beta_schedule(10)
        pred = LinearPredictor(5, seed=1)
        rng = seeded_rng(2)
        z = rng.standard_normal(5)
        one = denoise_step(z, 4, sched, pred)
        scaled = denoise_step(3.0 * z, 4, sched, pred)
        np.testing.assert_allclose(scaled, 3.0 * one, rtol=1e-12)

    def test_t_out_of_range(self):
        sched = linear_beta_schedule(5)
        with pytest.raises(ConfigError):
            denoise_step(np.zeros(2), 0, sched, ZeroPredictor())
        with pytest.raises(ConfigError):
            denoise_step(np.zeros(2), 6, sched, ZeroPredictor())


class TestInvertStep:
    def test_zero_noise_is_pure_scale(self):
        sched = linear_beta_schedule(20)
        rng = seeded_rng(3)
        z = rng.standard_normal(4)
        for t in (1, 7, 20):
            out = invert_step(z, t, sched, ZeroPredictor())
            scale = np.sqrt(sched.alphas[t] / sched.alphas[t - 1])
            np.testing.assert_allclose(out, scale * z, rtol=1e-15)

    def test_per_step_inverse_for_time_only_predictor(self):
        sched = linear_beta_schedule(30)
        pred = TimeOnlyPredictor(seed=5)
        z = seeded_rng(6).standard_normal(10)
        for t in (1, 15, 30):
            back = denoise_step(invert_step(z, t, sched, pred), t, sched, pred)
            assert np.abs(back - z).max() <= 1e-10

    def test_telescoping_with_zero_noise(self):
        """Composing every invert step scales by sqrt(alpha_T / alpha_0)."""
        sched = linear_beta_schedule(50)
        z = seeded_rng(7).standard_normal(6)
        states = run_trajectory(z, sched, ZeroPredictor(), "invert")
        expected = np.sqrt(sched.alphas[-1] / sched.alphas[0]) * z
        np.testing.assert_allclose(states[-1], expected, rtol=1e-13)


class TestCfgCombine:
    def test_scale_one_returns_conditional(self):
        a, b = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        np.testing.assert_array_equal(cfg_combine(a, b, 1.0), a)

    def test_scale_zero_returns_unconditional(self):
        a, b = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        np.testing.assert_array_equal(cfg_combine(a, b, 0.0), b)

    def test_production_scale_hand_case(self):
        assert cfg_combine(np.array([1.0]), np.array([0.0]), 7.5)[0] == pytest.approx(7.5)

    def test_affine_in_both_arguments(self):
        rng = seeded_rng(8)
        a, b, c, d = (rng.standard_normal(5) for _ in range(4))
        lhs = cfg_combine(a + b, c + d, 7.5)
        rhs = cfg_combine(a, c, 7.5) + cfg_combine(b, d, 7.5)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            cfg_combine(np.zeros(3), np.zeros(4), 1.0)

    def test_guided_predictor_composes(self):
        """Guidance wraps any predictor and reproduces the affine combination."""
        pred = TimeOnlyPredictor(seed=9)
        guided = GuidedPredictor(pred, 7.5)
        z = seeded_rng(10).standard_normal(4)
        expected = cfg_combine(pred(z, 3, "cond"), pred(z, 3, "uncond"), 7.5)
        np.testing.assert_array_equal(guided(z, 3, "ignored"), expected)


class TestTrajectories:
    def test_one_step_trajectory_has_two_states(self):
        sched = linear_beta_schedule(1)
        states = run_trajectory(np.zeros(3), sched, ZeroPredictor(), "invert")
        assert len(states) == 2

    def test_fifty_step_round_trip_zero_predictor(self):
        sched = linear_beta_schedule(50)
        z = seeded_rng(11).standard_normal(16)
        up = run_trajectory(z, sched, ZeroPredictor(), "invert")
        down = run_trajectory(up[-1], sched, ZeroPredictor(), "denoise")
        assert np.abs(down[-1] - z).max() <= 1e-10

    def test_deterministic(self):
        sched = linear_beta_schedule(20)
        z = seeded_rng(14).standard_normal(8)
        pred = TimeOnlyPredictor(seed=15)
        a = run_trajectory(z, sched, pred, "invert")
        b = run_trajectory(z, sched, pred, "invert")
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa, sb)

    def test_linear_predictor_drift_is_finite_diagnostic(self):
        """State-dependent noise: the round trip drifts; report, not assert."""
        sched = linear_beta_schedule(50)
        z = seeded_rng(16).standard_normal(12)
        pred = LinearPredictor(12, seed=17)
        up = run_trajectory(z, sched, pred, "invert")
        down = run_trajectory(up[-1], sched, pred, "denoise")
        drift = np.abs(down[-1] - z).max()
        assert np.isfinite(drift)

    def test_bad_direction_rejected(self):
        with pytest.raises(ConfigError):
            run_trajectory(np.zeros(2), linear_beta_schedule(2), ZeroPredictor(), "sideways")

    def test_save_trajectory_writes_manifest(self, tmp_path):
        sched = linear_beta_schedule(3)
        states = run_trajectory(np.ones(4), sched, ZeroPredictor(), "invert")
        save_trajectory(tmp_path / "traj", states)
        manifest = (tmp_path / "traj" / "manifest.txt").read_text().splitlines()
        assert len(manifest) == 4
        assert (tmp_path / "traj" / manifest[0]).exists()


class TestPredictors:
    def test_time_only_stream_equals_seed_sequence_construction(self):
        """The predictor draws the stream of PCG64 over
        SeedSequence([seed, t, crc32(cond)]), written out here as the reference."""
        tag = zlib.crc32("cond".encode("utf-8"))
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([3, 7, tag])))
        np.testing.assert_array_equal(TimeOnlyPredictor(3)(np.zeros(8), 7, "cond"),
                                      rng.standard_normal(8))

    def test_time_only_depends_on_time_and_cond_only(self):
        pred = TimeOnlyPredictor(seed=18)
        a = pred(np.zeros(6), 3, "cond")
        b = pred(np.ones(6), 3, "cond")
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(pred(np.zeros(6), 4, "cond"), a)
        assert not np.array_equal(pred(np.zeros(6), 3, "uncond"), a)

    def test_linear_predictor_shape_check(self):
        pred = LinearPredictor(4, seed=19)
        with pytest.raises(DimensionError):
            pred(np.zeros(5), 1, "cond")

    @pytest.mark.parametrize("dim", [0, -1])
    def test_linear_predictor_rejects_dimension_below_one(self, dim):
        with pytest.raises(ConfigError, match=f"dim must be >= 1, got {dim}"):
            LinearPredictor(dim)

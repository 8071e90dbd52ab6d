import math

import numpy as np
import pytest

from sdde_meansq import (
    PhiSpec,
    SignedMeasure,
    SimulationConfig,
    compute_resolvent,
    deterministic_solution,
    simulate_mean_square,
    simulate_single_path,
    variation_of_constants_residual,
    verify_variation_of_constants,
)
from sdde_meansq.montecarlo import _normal_increments

MU = SignedMeasure(1.0, atoms=((0.0, -1.0),))
NU = SignedMeasure(1.0, atoms=((0.0, 1.0),))
NU_ZERO = SignedMeasure(1.0)


def phi_const(h, value=1.0):
    return PhiSpec("constant", value=value).expand(1.0, h)


class TestIncrements:
    def test_substreams_do_not_depend_on_batching(self):
        a = _normal_increments(99, 0, 6, 50, 0.01)
        b = _normal_increments(99, 3, 4, 50, 0.01)
        assert np.array_equal(a[:, 3], b[:, 0])
        # past the first gathering block of paths, with a partial last block
        a = _normal_increments(99, 0, 150, 50, 0.01)
        b = _normal_increments(99, 130, 131, 50, 0.01)
        assert np.array_equal(a[:, 130], b[:, 0])

    def test_distinct_paths_and_seeds(self):
        a = _normal_increments(1, 0, 2, 100, 0.01)
        assert not np.array_equal(a[:, 0], a[:, 1])
        b = _normal_increments(2, 0, 1, 100, 0.01)
        assert not np.array_equal(a[:, 0], b[:, 0])

    def test_moments_roughly_normal(self):
        dw = _normal_increments(7, 0, 200, 400, 0.01)
        z = dw / math.sqrt(0.01)
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02


class TestSimulateMeanSquare:
    def test_zero_noise_reduces_to_deterministic(self):
        h = 1e-3
        cfg = SimulationConfig(step=h, horizon=1.0, path_count=16, master_seed=5)
        est = simulate_mean_square(MU, NU_ZERO, phi_const(h), cfg)
        assert np.all(est.stderr == 0.0)
        t = est.times()
        assert np.abs(est.mean_sq - np.exp(-2.0 * t)).max() < 3.0 * h
        assert est.valid

    def test_moment_matches_closed_form(self):
        # drift -1, unit noise: E|X(t)|^2 = e^{-t}
        h = 1e-3
        cfg = SimulationConfig(step=h, horizon=1.0, path_count=4000, master_seed=21)
        est = simulate_mean_square(MU, NU, phi_const(h), cfg)
        i = round(1.0 / h)
        z = (est.mean_sq[i] - math.exp(-1.0)) / est.stderr[i]
        assert abs(z) < 4.0

    def test_reproducible_across_worker_counts(self, monkeypatch):
        h = 0.01
        base = dict(step=h, horizon=1.0, path_count=3000, master_seed=77)
        est1 = simulate_mean_square(MU, NU, phi_const(h), SimulationConfig(**base, worker_count=1))
        monkeypatch.setenv("SDDE_MEANSQ_THREADS", "4")
        est2 = simulate_mean_square(MU, NU, phi_const(h), SimulationConfig(**base, worker_count=8))
        assert np.array_equal(est1.mean_sq, est2.mean_sq)
        assert np.array_equal(est1.stderr, est2.stderr)

    def test_diverged_paths_reported_not_dropped(self):
        # drift +60 at step .01 multiplies each path by ~1.6 per step: overflow
        mu = SignedMeasure(1.0, atoms=((0.0, 60.0),))
        cfg = SimulationConfig(step=0.01, horizon=10.0, path_count=4, master_seed=1)
        est = simulate_mean_square(mu, NU_ZERO, phi_const(0.01), cfg)
        assert est.diverged_paths == 4
        assert not est.valid
        assert not np.isfinite(est.mean_sq[-1])

    def test_tilt_bounds_error_on_gbm_lognormal_tail(self):
        # c = 2: the plain mean of X^2 sees a few percent of the lognormal
        # tail at t = 2; the tilted estimate must be tight and honest against
        # the Euler-Maruyama chain's exact mean ((1 - h)^2 + 4h)^n
        h = 1e-3
        nu = SignedMeasure(1.0, atoms=((0.0, 2.0),))
        cfg = SimulationConfig(step=h, horizon=2.0, path_count=4096, master_seed=8)
        est = simulate_mean_square(MU, nu, phi_const(h), cfg)
        assert est.tilt == 4.0
        for t in (0.5, 1.0, 2.0):
            n = round(t / h)
            exact = ((1.0 - h) ** 2 + 4.0 * h) ** n
            assert abs(est.mean_sq[n] - exact) <= 4.0 * est.stderr[n]
            assert est.stderr[n] <= 1e-2 * exact

    @pytest.mark.parametrize("x0, b, c, h, T, m", [
        # the tilted chain grows like exp((b + 1.5 c^2) t) and leaves the
        # float range near t = 57, while sqrt(w) X stays near sqrt(E X^2),
        # which grows like exp((b + c^2 / 2) t)
        (1.0, -1.0, 3.0, 0.01, 60.0, 64),
        # the first rescale comes before the delay horizon, so it also
        # covers the value at t = 0
        (1e148, -20.0, 5.0, 1e-3, 1.0, 64),
        # two chunks of unequal size sum their fourth powers, which pass
        # the float range, at two scales
        (1e100, -1.0, 1.0, 0.01, 1.0, 2100),
    ])
    def test_weighted_squares_match_product_form(self, x0, b, c, h, T, m):
        # for gbm the Euler-Maruyama chain is a product, so log|X| gives an
        # exact reference for the weighted squares on the same substreams
        lam = 2.0 * c
        mu = SignedMeasure(1.0, atoms=((0.0, b),))
        nu = SignedMeasure(1.0, atoms=((0.0, c),))
        cfg = SimulationConfig(step=h, horizon=T, path_count=m, master_seed=3)
        est = simulate_mean_square(mu, nu, phi_const(h, x0), cfg)
        assert est.tilt == lam
        assert est.valid and est.diverged_paths == 0
        assert np.all(np.isfinite(est.mean_sq)) and np.all(np.isfinite(est.stderr))
        n_steps = round(T / h)
        dw = _normal_increments(3, 0, m, n_steps, h)
        factors = np.abs(1.0 + b * h + c * (dw + lam * h))
        log_x = math.log(x0) + np.cumsum(np.log(factors), axis=0)
        t = h * np.arange(1, n_steps + 1)[:, None]
        log_w = -lam * np.cumsum(dw, axis=0) - 0.5 * lam * lam * t
        weighted = np.exp(2.0 * log_x + log_w)
        assert est.mean_sq[0] == x0 * x0
        assert np.allclose(est.mean_sq[1:], weighted.mean(axis=1), rtol=1e-8, atol=0.0)
        top = weighted.max(axis=1)
        spread = (weighted / top[:, None]).std(axis=1, ddof=1) * top / math.sqrt(m)
        assert np.allclose(est.stderr[1:], spread, rtol=1e-6, atol=0.0)

    def test_no_lag_zero_atom_is_plain_mean_of_squares(self):
        h, T, m = 0.01, 2.0, 12
        nu = SignedMeasure(1.0, atoms=((-1.0, 0.5),))
        cfg = SimulationConfig(step=h, horizon=T, path_count=m, master_seed=13)
        est = simulate_mean_square(MU, nu, phi_const(h), cfg)
        assert est.tilt == 0.0
        n_steps = round(T / h)
        values = np.stack([
            simulate_single_path(
                MU, nu, phi_const(h), h, T, _normal_increments(13, i, i + 1, n_steps, h)[:, 0]
            ).values
            for i in range(m)
        ], axis=1)
        assert np.array_equal(est.mean_sq, (values * values).sum(axis=1) / m)

    def test_path_count_floor(self):
        with pytest.raises(Exception):
            SimulationConfig(step=0.01, horizon=1.0, path_count=1)


class TestVariationOfConstants:
    def test_zero_noise_residual_is_integrator_gap(self):
        h = 1e-3
        cfg = SimulationConfig(step=h, horizon=2.0, path_count=2, master_seed=3)
        res = verify_variation_of_constants(MU, NU_ZERO, phi_const(h), cfg, path_index=0)
        assert res < 1e-3

    def test_residual_small_at_fine_step(self):
        h = 1e-3
        cfg = SimulationConfig(step=h, horizon=2.0, path_count=2, master_seed=3)
        res = verify_variation_of_constants(MU, NU, phi_const(h), cfg, path_index=0)
        assert res < 0.05

    def test_refinement_order_with_common_noise(self):
        # one Brownian path, coarsened by pairwise sums: defect halves with h
        T = 2.0
        levels = [0.02, 0.01, 0.005, 0.0025]
        h_fine = levels[-1] / 2.0
        dw_fine = _normal_increments(7, 0, 1, round(T / h_fine), h_fine)[:, 0]
        residuals = []
        for h in levels:
            k = round(h / h_fine)
            dw = dw_fine.reshape(-1, k).sum(axis=1)
            phi = phi_const(h)
            rec = simulate_single_path(MU, NU, phi, h, T, dw)
            r = compute_resolvent(MU, h, T)
            x = deterministic_solution(MU, phi, h, T)
            residuals.append(variation_of_constants_residual(rec, r, x))
        order = np.polyfit(np.log2(levels), np.log2(residuals), 1)[0]
        assert order >= 0.45

    def test_degenerate_instance_residual_tracks_deterministic_gap(self):
        e = math.e
        nu = SignedMeasure(1.0, atoms=((0.0, -e), (-1.0, 1.0)))
        phi = PhiSpec("exponential", rate=-1.0).expand(1.0, 1e-3)
        cfg = SimulationConfig(step=1e-3, horizon=2.0, path_count=2, master_seed=11)
        res = verify_variation_of_constants(MU, nu, phi, cfg, path_index=0)
        assert res < 1e-2

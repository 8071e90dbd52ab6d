import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sdde_meansq
from sdde_meansq import montecarlo
from sdde_meansq import (
    PhiSpec,
    SignedMeasure,
    SimulationConfig,
    compute_resolvent,
    deterministic_solution,
    simulate_mean_square,
    simulate_single_path,
    variation_of_constants_residual,
)
from sdde_meansq.errors import BAD_VALUE, ConfigurationError
from sdde_meansq.measures import CompiledFunctional
from sdde_meansq.montecarlo import (
    BLOCK,
    CHUNK,
    DIVERGE_LIMIT,
    RESCALE_BITS,
    McSettings,
    _euler_maruyama,
    _increment_blocks,
    _increments_from_bits,
    _normal_increments,
    _path_key,
    _path_streams,
    _raw_bits,
    _rekey,
    _simulate_chunk,
    _WindowSums,
)

MU = SignedMeasure(1.0, atoms=((0.0, -1.0),))
NU = SignedMeasure(1.0, atoms=((0.0, 1.0),))
NU_ZERO = SignedMeasure(1.0)
#: three off-grid knots, a sign change and no lag-0 atom
NU_DENSITY = SignedMeasure(
    1.0, atoms=((-1.0, 0.3),), density=((-0.837, 0.6), (-0.4113, -0.7), (-0.0671, 0.4))
)
NU_DENSITY_TILTED = SignedMeasure(1.0, atoms=((0.0, 0.8),), density=NU_DENSITY.density)
MU_DENSITY = SignedMeasure(1.0, atoms=((0.0, -1.0),), density=((-1.0, 0.4), (-0.3, -0.2)))


def phi_const(h, value=1.0):
    return PhiSpec("constant", value=value).expand(1.0, h)


def stacked_single_paths(mu, nu, phi, h, T, seed, m, tilt=0.0):
    n_steps = round(T / h)
    return np.stack([
        simulate_single_path(
            mu, nu, phi, h, T, _normal_increments(seed, i, i + 1, n_steps, h)[:, 0] + tilt * h
        ).values
        for i in range(m)
    ], axis=1)


def assert_window_sums_match_matvec(measure, h, paths):
    """The evaluator against the dense ``value_vec`` at every step of ``paths``.

    The gap is measured against sum |w| |x|, the size of the terms summed.
    Every N steps the moments are summed afresh, exactly as a new evaluator
    anchored at that step sums them.
    """
    fn = CompiledFunctional(measure, h)
    N = fn.n_intervals
    weights = np.zeros(N + 1) if fn.dens_weights is None else fn.dens_weights.copy()
    for off, w in fn.atom_at.items():
        weights[off] += w
    evaluator = _WindowSums(fn, paths)
    for n in range(paths.shape[0] - N - 1):
        window = paths[n : n + N + 1]
        gap = np.abs(evaluator.value(n) - fn.value_vec(paths, n))
        assert np.all(gap <= 1e-12 * (np.abs(weights) @ np.abs(window)))
        if n % N == 0:
            fresh = _WindowSums(fn, paths)
            fresh.anchor(n)
            assert np.array_equal(evaluator.value(n), fresh.value(n))
        evaluator.advance(n)


def reference_chunk(f_mu, g_nu, phi_values, n_steps, h, master_seed, lo, hi, tilt):
    """A chunk that holds its whole horizon of paths and increments, reduced at the end.

    The layout that ``_simulate_chunk`` replaces with a ring: the same
    stepper on one full-length array, the increments drawn in one call, and
    the driving path, the weights and the rescale corrections formed once
    every step is done, on every row a rescale scaled.
    """
    n_hist = phi_values.size - 1
    paths = np.empty((n_hist + n_steps + 1, hi - lo))
    paths[: n_hist + 1] = phi_values[:, None]
    dw = _normal_increments(master_seed, lo, hi, n_steps, h)
    dw += tilt * h
    with np.errstate(over="ignore", invalid="ignore"):
        drift, noise = _WindowSums(f_mu, paths), _WindowSums(g_nu, paths)
        rescaled = _euler_maruyama(drift, noise, dw, h, n_hist)
        for n in range(1, n_steps):
            dw[n] += dw[n - 1]
        body = paths[n_hist:]
        dw *= -0.25 * tilt
        dw += (0.125 * tilt * tilt * h * np.arange(1, n_steps + 1))[:, None]
        for n, idx in rescaled:
            dw[max(n - n_hist, 0) :, idx] += 0.5 * RESCALE_BITS * math.log(2.0)
            if n < n_hist:
                body[0, idx] *= 2.0**RESCALE_BITS
        np.exp(dw, out=dw)
        body[1:] *= dw
        body[1:] *= dw
        np.abs(body, out=body)
        bad = ~(body <= DIVERGE_LIMIT).all(axis=0)
        sq = np.square(body, out=body)
        sum_sq = sq.sum(axis=1)
        scale = np.frexp(sum_sq)[1]
        np.ldexp(sq, -scale[:, None], out=sq)
        max_sq = sq.max(axis=1)
        sum_q4 = np.square(sq, out=sq).sum(axis=1)
    return sum_sq, sum_q4, scale, int(np.count_nonzero(bad)), max_sq


def lone_chunk(f_mu, g_nu, phi_values, n_steps, h, seed, lo, hi, tilt):
    """``_simulate_chunk`` of paths [lo, hi), fed by a feed of that chunk alone on this thread."""
    feed = _increment_blocks(seed, [(lo, hi)], n_steps, h, tilt * h, None)
    return _simulate_chunk(f_mu, g_nu, phi_values, n_steps, h, tilt, lo, hi, feed)


def both_chunks(mu, nu, x0, h, T, seed, lo, hi):
    f_mu, g_nu = CompiledFunctional(mu, h), CompiledFunctional(nu, h)
    tilt = 2.0 * g_nu.atom_at.get(g_nu.n_intervals, 0.0)
    args = (f_mu, g_nu, phi_const(h, x0).values, round(T / h), h, seed, lo, hi, tilt)
    return lone_chunk(*args), reference_chunk(*args)


class TestWindowSums:
    def test_matches_matvec_where_the_last_node_rounds_above_zero(self):
        # -0.7 + 700 * 1e-3 rounds above 0; the runs and the dense weights
        # must both give the lag-0 node its weight
        m = SignedMeasure(0.7, atoms=((0.0, 0.5),), density=((-0.7, 0.5), (0.0, 0.5)))
        assert CompiledFunctional(m, 1e-3).dens_weights[-1] == 0.5 * 0.5 * 1e-3
        rng = np.random.default_rng(7)
        assert_window_sums_match_matvec(m, 1e-3, rng.standard_normal((2 * 700 + 2, 3)))

    @pytest.mark.parametrize("density, h", [
        # knots off the grid, with a sign change
        (((-0.837, 0.6), (-0.4113, -0.7), (-0.0671, 0.4)), 0.01),
        # two knots inside the grid cell [-0.51, -0.50]
        (((-0.9, 1.0), (-0.5077, 2.0), (-0.5031, -1.0), (0.0, 0.5)), 0.01),
        # a density on part of [-alpha, 0] only, zero at both grid ends
        (((-0.8, 0.0), (-0.3, 1.0)), 0.02),
        # knots on the grid at both ends, so both trapezoid halvings apply
        (((-1.0, 1.0), (-0.5, -1.0), (0.0, 1.0)), 0.125),
    ])
    def test_matches_matvec_on_random_paths(self, density, h):
        m = SignedMeasure(1.0, atoms=((0.0, 0.7), (-1.0, -0.2)), density=density)
        N = round(1.0 / h)
        rng = np.random.default_rng(5)
        assert_window_sums_match_matvec(m, h, rng.standard_normal((4 * N + 2, 3)))

    @given(
        knots=st.lists(
            # values rounded so that no weight is subnormal
            st.tuples(st.floats(-1.0, 0.0), st.floats(-3.0, 3.0).map(lambda v: round(v, 6))),
            min_size=2, max_size=6,
            unique_by=lambda k: k[0],
        ),
        h=st.sampled_from([0.25, 0.1, 0.05, 0.02]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_matvec_on_random_densities(self, knots, h, seed):
        m = SignedMeasure(1.0, density=tuple(sorted(knots)))
        N = round(1.0 / h)
        paths = np.random.default_rng(seed).standard_normal((3 * N + 2, 2))
        assert_window_sums_match_matvec(m, h, paths)

    def test_matches_matvec_along_a_chain_with_densities_in_drift_and_noise(self):
        # the paths come from the chain itself, so the windows carry its
        # growth and correlation
        h, T = 0.01, 4.0
        mu = SignedMeasure(1.0, atoms=((0.0, -0.5),), density=((-1.0, 0.9), (-0.2327, -0.4)))
        phi = PhiSpec("exponential", rate=-1.0).expand(1.0, h)
        path = np.stack([
            simulate_single_path(
                mu, NU_DENSITY, phi, h, T, _normal_increments(2, i, i + 1, round(T / h), h)[:, 0]
            ).values
            for i in range(2)
        ], axis=1)
        padded = np.concatenate([np.repeat(phi.values[:-1, None], 2, axis=1), path])
        for measure in (mu, NU_DENSITY):
            assert_window_sums_match_matvec(measure, h, padded)

    def test_atom_only_functional_keeps_no_moments(self):
        fn = CompiledFunctional(SignedMeasure(1.0, atoms=((0.0, 1.0), (-0.5, 2.0))), 0.1)
        assert fn.runs == () and fn.point_items == tuple(fn.atom_at.items())


class TestIncrements:
    def test_substreams_do_not_depend_on_batching(self):
        a = _normal_increments(99, 0, 6, 50, 0.01)
        b = _normal_increments(99, 3, 4, 50, 0.01)
        assert np.array_equal(a[:, 3], b[:, 0])
        a = _normal_increments(99, 0, 150, 50, 0.01)
        b = _normal_increments(99, 130, 131, 50, 0.01)
        assert np.array_equal(a[:, 130], b[:, 0])

    @pytest.mark.parametrize("seed, lo", [(0, 0), (1, 5), (2**63 + 7, 2047), (123456789, 10**6)])
    @pytest.mark.parametrize("lengths", [(600,), (150, 150, 150, 150), (1, 255, 256, 88), (3, 597)])
    def test_draws_in_blocks_are_the_bounded_integer_draws(self, seed, lo, lengths):
        # the reference: numpy's bounded integers in [0, 2**53) on each path's
        # stream, in one call, turned into increments as the module does
        from scipy.special import ndtri

        h, hi, n = 0.01, lo + 3, sum(lengths)
        ints = np.stack([
            np.random.Generator(np.random.Philox(key=_path_key(seed, i))).integers(
                0, 1 << 53, size=n, dtype=np.int64
            )
            for i in range(lo, hi)
        ], axis=1)
        reference = ndtri((ints + 0.5) * 2.0**-53) * math.sqrt(h)
        streams = _path_streams(seed, lo, hi)
        blocks = [
            _increments_from_bits(
                _raw_bits(streams, np.empty((hi - lo, k), dtype=np.uint64)), h, 0.0,
                np.empty((k, hi - lo)),
            )
            for k in lengths
        ]
        assert np.array_equal(np.concatenate(blocks), reference)
        assert np.array_equal(_normal_increments(seed, lo, hi, n, h), reference)

    @pytest.mark.parametrize("seed", [0, 3, 2**64 + 5])
    def test_rekeyed_streams_are_fresh_streams(self, seed):
        # streams part-way through other paths' draws, re-keyed to paths 2048..
        streams = _path_streams(seed, 0, 5)
        for bits in streams:
            bits.random_raw(7)
        rekeyed = [b.random_raw(300) for b in _rekey(streams[:3], seed, 2048)]
        fresh = [b.random_raw(300) for b in _path_streams(seed, 2048, 2051)]
        assert np.array_equal(rekeyed, fresh)

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

    def test_density_reproducible_across_worker_counts(self, monkeypatch):
        h = 0.01
        base = dict(step=h, horizon=1.0, path_count=3000, master_seed=77)
        phi = phi_const(h)
        est1 = simulate_mean_square(
            MU, NU_DENSITY, phi, SimulationConfig(**base, worker_count=1)
        )
        monkeypatch.setenv("SDDE_MEANSQ_THREADS", "4")
        est2 = simulate_mean_square(
            MU, NU_DENSITY, phi, SimulationConfig(**base, worker_count=8)
        )
        assert np.array_equal(est1.mean_sq, est2.mean_sq)
        assert np.array_equal(est1.stderr, est2.stderr)
        assert est1.max_path_share == est2.max_path_share

    @pytest.mark.parametrize("mu, nu, x0, h, T, m", [
        # two chunks, and a last block of 307 - 256 = 51 steps
        (MU, NU, 1.0, 0.01, 3.07, 2100),
        (MU_DENSITY, NU_DENSITY, 1.0, 0.01, 3.07, 2100),
        # rescaled before the delay horizon, in both chunks
        (SignedMeasure(1.0, atoms=((0.0, -20.0),)), SignedMeasure(1.0, atoms=((0.0, 5.0),)),
         1e148, 1e-3, 1.0, 2100),
        # three chunks, the last one partial, of one block each: the bits
        # drawn two blocks ahead cross both chunk boundaries
        (MU, NU_DENSITY_TILTED, 1.0, 0.01, 1.0, 2 * CHUNK + 37),
        # one step, so one block of one row per chunk
        (MU, NU, 1.0, 0.01, 0.01, 2 * CHUNK + 37),
    ])
    def test_helper_thread_changes_no_bit(self, monkeypatch, mu, nu, x0, h, T, m):
        monkeypatch.delenv("SDDE_MEANSQ_THREADS", raising=False)
        base = dict(step=h, horizon=T, path_count=m, master_seed=13)
        phi = phi_const(h, x0)
        one = simulate_mean_square(mu, nu, phi, SimulationConfig(**base, worker_count=1))
        two = simulate_mean_square(mu, nu, phi, SimulationConfig(**base, worker_count=2))
        assert np.array_equal(one.mean_sq, two.mean_sq)
        assert np.array_equal(one.stderr, two.stderr)
        assert one.max_path_share == two.max_path_share
        assert one.diverged_paths == two.diverged_paths == 0

    @pytest.mark.parametrize("workers, cap, helpers", [
        (1, None, 0), (2, None, 1), (8, "4", 1), (2, "", 1), (8, "1", 0),
    ])
    def test_helper_threads_end_with_the_call(self, monkeypatch, workers, cap, helpers):
        # 600 steps are three blocks and CHUNK + 5 paths two chunks: six
        # transforms, all on the one helper of a budget of two or more; an
        # empty cap caps nothing
        if cap is None:
            monkeypatch.delenv("SDDE_MEANSQ_THREADS", raising=False)
        else:
            monkeypatch.setenv("SDDE_MEANSQ_THREADS", cap)
        transform = montecarlo._increments_from_bits
        ran_on = []

        def recorded(*args):
            ran_on.append(threading.current_thread())
            return transform(*args)

        monkeypatch.setattr(montecarlo, "_increments_from_bits", recorded)
        before = set(threading.enumerate())
        cfg = SimulationConfig(
            step=0.01, horizon=6.0, path_count=CHUNK + 5, master_seed=2, worker_count=workers
        )
        simulate_mean_square(MU, NU, phi_const(0.01), cfg)
        assert len(ran_on) == 2 * 3
        others = {t for t in ran_on if t is not threading.current_thread()}
        assert len(others) == helpers
        assert not any(t.is_alive() for t in others)
        assert set(threading.enumerate()) <= before

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("T", [3.0, 1.0])
    def test_transforms_run_in_chunk_then_block_order(self, monkeypatch, workers, T):
        # 300 steps are two blocks per chunk and 100 steps one: each
        # transform gets the bits its (chunk, block) draws from the streams
        monkeypatch.delenv("SDDE_MEANSQ_THREADS", raising=False)
        transform = montecarlo._increments_from_bits
        seen = []

        def recorded(raw, *args):
            seen.append((raw.shape, raw[[0, -1], 0].copy()))
            return transform(raw, *args)

        monkeypatch.setattr(montecarlo, "_increments_from_bits", recorded)
        h, m = 0.01, 2 * CHUNK + 37
        cfg = SimulationConfig(step=h, horizon=T, path_count=m, master_seed=4, worker_count=workers)
        simulate_mean_square(MU, NU, phi_const(h), cfg)
        n_steps = round(T / h)
        want = []
        for lo in range(0, m, CHUNK):
            hi = min(lo + CHUNK, m)
            first, last = (
                np.random.Philox(key=_path_key(4, i)).random_raw(n_steps) for i in (lo, hi - 1)
            )
            for s0 in range(0, n_steps, BLOCK):
                k = min(s0 + BLOCK, n_steps) - s0
                want.append(((hi - lo, k), np.array([first[s0], last[s0]])))
        assert len(seen) == len(want)
        for (shape, bits), (want_shape, want_bits) in zip(seen, want):
            assert shape == want_shape
            assert np.array_equal(bits, want_bits)

    def test_shared_feed_gives_each_chunk_its_own_increments(self, monkeypatch):
        # each chunk of a call, fed across chunk boundaries, against the same
        # chunk fed alone
        monkeypatch.delenv("SDDE_MEANSQ_THREADS", raising=False)
        chunk = montecarlo._simulate_chunk
        calls = []

        def recorded(*args):
            calls.append((args[:-1], chunk(*args)))
            return calls[-1][1]

        monkeypatch.setattr(montecarlo, "_simulate_chunk", recorded)
        cfg = SimulationConfig(
            step=0.01, horizon=3.0, path_count=2 * CHUNK + 37, master_seed=6, worker_count=2
        )
        simulate_mean_square(MU_DENSITY, NU_DENSITY_TILTED, phi_const(0.01), cfg)
        assert len(calls) == 3
        for (f_mu, g_nu, phi_values, n_steps, h, tilt, lo, hi), fed in calls:
            alone = lone_chunk(f_mu, g_nu, phi_values, n_steps, h, 6, lo, hi, tilt)
            for got, want in zip(fed, alone):
                assert np.array_equal(got, want)

    def test_helper_failure_propagates_and_ends_the_helper(self, monkeypatch):
        monkeypatch.delenv("SDDE_MEANSQ_THREADS", raising=False)
        transform = montecarlo._increments_from_bits
        ran_on = []

        def failing(*args):
            ran_on.append(threading.current_thread())
            if len(ran_on) == 3:
                raise ValueError("transform failed")
            return transform(*args)

        monkeypatch.setattr(montecarlo, "_increments_from_bits", failing)
        before = set(threading.enumerate())
        cfg = SimulationConfig(
            step=0.01, horizon=6.0, path_count=64, master_seed=2, worker_count=2
        )
        with pytest.raises(ValueError, match="transform failed"):
            simulate_mean_square(MU, NU, phi_const(0.01), cfg)
        assert ran_on[2] is not threading.current_thread()
        assert not ran_on[2].is_alive()
        assert set(threading.enumerate()) <= before

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
        # the discrete log weight is heavy-tailed itself: one path holds
        # nearly all of the weighted squares
        (1.0, -1.0, 3.0, 0.01, 30.0, 64),
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
        share = max(1.0 / m, (top / weighted.sum(axis=1)).max())
        assert est.max_path_share == pytest.approx(share, rel=1e-8)

    @pytest.mark.parametrize("c, h, T, m, low, high", [
        # the heavy-tailed log weight: the stderr there is no bound
        (3.0, 0.01, 30.0, 64, 0.99, 1.0),
        # the tilt makes gbm's weighted squares nearly deterministic
        (1.0, 1e-3, 1.0, 4096, 0.0, 1e-3),
        (2.0, 1e-3, 1.0, 4096, 0.0, 1e-3),
    ])
    def test_max_path_share_flags_a_single_path_estimate(self, c, h, T, m, low, high):
        nu = SignedMeasure(1.0, atoms=((0.0, c),))
        cfg = SimulationConfig(step=h, horizon=T, path_count=m, master_seed=3)
        est = simulate_mean_square(MU, nu, phi_const(h), cfg)
        assert low <= est.max_path_share <= high

    def test_density_rescale_matches_single_paths(self):
        # the tilted chain passes 2**512 before the delay horizon, so the
        # density moments follow the rescale of the rows they sum
        x0, h, T, m, c = 1e148, 1e-3, 1.0, 16, 5.0
        mu = SignedMeasure(1.0, atoms=((0.0, -20.0),))
        nu = SignedMeasure(1.0, atoms=((0.0, c),), density=NU_DENSITY.density)
        cfg = SimulationConfig(step=h, horizon=T, path_count=m, master_seed=3)
        phi = phi_const(h, x0)
        est = simulate_mean_square(mu, nu, phi, cfg)
        lam = 2.0 * c
        assert est.tilt == lam and est.valid
        assert np.all(np.isfinite(est.mean_sq)) and np.all(np.isfinite(est.stderr))
        values = stacked_single_paths(mu, nu, phi, h, T, 3, m, tilt=lam)
        assert np.abs(values).max() > 2.0**512
        n_steps = round(T / h)
        t = h * np.arange(1, n_steps + 1)[:, None]
        log_w = -lam * np.cumsum(_normal_increments(3, 0, m, n_steps, h), axis=0)
        log_w -= 0.5 * lam * lam * t
        weighted = np.exp(2.0 * np.log(np.abs(values[1:])) + log_w)
        assert np.allclose(est.mean_sq[1:], weighted.mean(axis=1), rtol=1e-10, atol=0.0)

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

    def test_density_noise_matches_single_paths(self):
        h, T, m = 0.01, 2.0, 12
        mu = SignedMeasure(1.0, atoms=((0.0, -1.0),), density=((-1.0, 0.4), (-0.3, -0.2)))
        cfg = SimulationConfig(step=h, horizon=T, path_count=m, master_seed=13)
        est = simulate_mean_square(mu, NU_DENSITY, phi_const(h), cfg)
        assert est.tilt == 0.0
        values = stacked_single_paths(mu, NU_DENSITY, phi_const(h), h, T, 13, m)
        assert np.array_equal(est.mean_sq, (values * values).sum(axis=1) / m)

    @pytest.mark.parametrize("x0, T, path", [
        # the tilted chain passes 2**512 (up to about 2**527) before the
        # delay horizon, so the rescale also covers history rows
        (1e148, 1.0, 7),
        # it passes 2**512 near t = 2.2, so the rescale starts on a recorded row
        (1e140, 3.0, 0),
    ])
    def test_single_path_undoes_its_rescales_exactly(self, x0, T, path):
        # the stepper that the Monte Carlo chunks share rescales the path
        b, c, h = -20.0, 5.0, 1e-3
        lam = 2.0 * c
        mu = SignedMeasure(1.0, atoms=((0.0, b),))
        nu = SignedMeasure(1.0, atoms=((0.0, c),))
        dw = _normal_increments(3, path, path + 1, round(T / h), h)[:, 0]
        rec = simulate_single_path(mu, nu, phi_const(h, x0), h, T, dw + lam * h)
        assert np.abs(rec.values).max() > 2.0**512
        exact = x0 * np.cumprod(np.concatenate([[1.0], 1.0 + b * h + c * (dw + lam * h)]))
        assert np.allclose(rec.values, exact, rtol=1e-13, atol=0.0)
        assert np.array_equal(rec.noise_values, c * rec.values[:-1])

    @pytest.mark.parametrize("mu, nu, h, T, lo, m", [
        # fewer steps than a block, N < BLOCK, density noise with a lag-0 atom
        (MU, NU_DENSITY_TILTED, 0.01, 1.0, 0, 37),
        # steps not a multiple of BLOCK; the density anchors at 200 and 300
        # straddle the block boundary at 256
        (MU, NU_DENSITY_TILTED, 0.01, 6.5, 0, 37),
        # no lag-0 atom, so no tilt; densities in drift and noise
        (MU_DENSITY, NU_DENSITY, 0.01, 6.5, 0, 37),
        # an anchor falls on the block boundary at 256
        (MU_DENSITY, NU_DENSITY_TILTED, 1.0 / 128, 4.0, 0, 21),
        # N > BLOCK, so a block's window reaches back over several blocks
        (MU, NU_DENSITY_TILTED, 1e-3, 1.3, 0, 21),
        (MU_DENSITY, NU_DENSITY, 1e-3, 1.3, 0, 21),
        # the second chunk of a run, on atoms only
        (MU, NU, 0.01, 6.5, CHUNK, 40),
    ])
    def test_streamed_chunk_matches_full_horizon_chunk(self, mu, nu, h, T, lo, m):
        streamed, reference = both_chunks(mu, nu, 1.0, h, T, 5, lo, lo + m)
        for got, want in zip(streamed, reference):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("x0, b, c, h, T", [
        # rescaled before the delay horizon, so also on history rows
        (1e148, -20.0, 5.0, 1e-3, 1.0),
        # rescaled again and again over 6000 steps, across many blocks
        (1.0, -1.0, 3.0, 0.01, 60.0),
    ])
    def test_streamed_chunk_matches_full_horizon_chunk_through_rescales(self, x0, b, c, h, T):
        # rows reduced before a rescale are no longer scaled and unscaled,
        # so the two agree to rounding only
        mu = SignedMeasure(1.0, atoms=((0.0, b),))
        nu = SignedMeasure(1.0, atoms=((0.0, c),))
        streamed, reference = both_chunks(mu, nu, x0, h, T, 3, 0, 16)
        (sq, q4, scale, bad, top), (sq_r, q4_r, scale_r, bad_r, top_r) = streamed, reference
        assert bad == bad_r
        assert np.allclose(sq, sq_r, rtol=1e-12, atol=0.0)
        assert np.allclose(np.ldexp(q4, 2 * (scale - scale_r)), q4_r, rtol=1e-12, atol=0.0)
        assert np.allclose(np.ldexp(top, scale - scale_r), top_r, rtol=1e-12, atol=0.0)

    def test_memory_does_not_grow_with_the_horizon(self):
        # a chunk keeps N + 1 + BLOCK rows, not the whole horizon
        h = 0.01
        _normal_increments(0, 0, 1, 1, h)

        def peak(T):
            cfg = SimulationConfig(step=h, horizon=T, path_count=CHUNK, master_seed=1)
            tracemalloc.start()
            try:
                simulate_mean_square(MU, NU, phi_const(h), cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(20.0) <= 1.5 * peak(2.0)

    def test_memory_is_one_ring_and_four_blocks(self):
        # a 2-chunk call holds a chunk's ring of N + 1 + BLOCK rows and the
        # feed's four blocks: two of raw bits, which double as the weighted
        # rows, and two of increments.  A fifth block would add 11 %.
        h, N = 1e-3, 1000
        cfg = SimulationConfig(step=h, horizon=0.5, path_count=2 * CHUNK, master_seed=1)
        simulate_mean_square(MU, NU, phi_const(h), cfg)
        tracemalloc.start()
        try:
            simulate_mean_square(MU, NU, phi_const(h), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = (N + 1 + BLOCK) + 4 * BLOCK
        assert 1.0 <= peak / (8 * CHUNK * rows) <= 1.05

    def test_path_count_floor(self):
        with pytest.raises(ConfigurationError) as err:
            SimulationConfig(step=0.01, horizon=1.0, path_count=1)
        assert err.value.code == BAD_VALUE and err.value.field == "paths"

    @pytest.mark.parametrize("field, limit", [
        ("seed", {"master_seed": -1}),
        ("seed", {"master_seed": 2**64}),
        ("workers", {"worker_count": 0}),
        ("workers", {"worker_count": -3}),
        ("step", {"step": math.nan}),
        ("step", {"step": math.inf}),
        ("horizon", {"horizon": math.nan}),
        ("horizon", {"horizon": math.inf}),
    ])
    def test_limits_are_bad_values(self, field, limit):
        # a seed past 64 bits would draw as the seed it wraps to
        with pytest.raises(ConfigurationError) as err:
            SimulationConfig(**{"step": 0.01, "horizon": 1.0, "path_count": 2, **limit})
        assert err.value.code == BAD_VALUE and err.value.field == field

    def test_limits_admit_their_edges(self):
        for seed in (0, 2**64 - 1):
            SimulationConfig(step=0.01, horizon=1.0, path_count=2, master_seed=seed, worker_count=1)

    def test_defaults_are_the_mc_block_defaults(self):
        mc = McSettings()
        cfg = SimulationConfig(step=0.01, horizon=1.0, path_count=mc.paths)
        assert (cfg.master_seed, cfg.worker_count) == (mc.seed, mc.workers)


def path_residual(mu, nu, phi, cfg, path_index):
    """Max residual of one simulated path in the resolvent representation."""
    n_steps = round(cfg.horizon / cfg.step)
    increments = _normal_increments(
        cfg.master_seed, path_index, path_index + 1, n_steps, cfg.step
    )[:, 0]
    record = simulate_single_path(mu, nu, phi, cfg.step, cfg.horizon, increments)
    r = compute_resolvent(mu, cfg.step, cfg.horizon)
    x = deterministic_solution(mu, phi, cfg.step, cfg.horizon)
    return variation_of_constants_residual(record, r, x)


class TestVariationOfConstants:
    def test_zero_noise_residual_is_integrator_gap(self):
        h = 1e-3
        cfg = SimulationConfig(step=h, horizon=2.0, path_count=2, master_seed=3)
        res = path_residual(MU, NU_ZERO, phi_const(h), cfg, path_index=0)
        assert res < 1e-3

    def test_residual_small_at_fine_step(self):
        h = 1e-3
        cfg = SimulationConfig(step=h, horizon=2.0, path_count=2, master_seed=3)
        res = path_residual(MU, NU, phi_const(h), cfg, path_index=0)
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
        res = path_residual(MU, nu, phi, cfg, path_index=0)
        assert res < 1e-2


def test_package_import_leaves_scipy_special_out():
    # scipy.special is most of the import time and only the Monte Carlo
    # increments need it; scipy.optimize, which solve_b0 alone uses, loads it
    src = os.path.dirname(os.path.dirname(os.path.abspath(sdde_meansq.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, sdde_meansq; "
        "print('scipy.special' in sys.modules, 'scipy.optimize' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "False False"

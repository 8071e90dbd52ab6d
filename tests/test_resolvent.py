import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdde_meansq import (
    GridTrace,
    SignedMeasure,
    compute_resolvent,
    deterministic_solution,
    l2_norm_sq_tail,
)
from sdde_meansq.errors import ConfigurationError
from sdde_meansq.measures import CompiledFunctional, Segment
from sdde_meansq.quadrature import trapezoid
from sdde_meansq.resolvent import _envelope_fit, decay_rate_estimate


def const_phi(alpha, h, value=1.0):
    return Segment(alpha, h, np.full(round(alpha / h) + 1, value))


def exp_phi(alpha, h, rate):
    u = -alpha + h * np.arange(round(alpha / h) + 1)
    u[-1] = 0.0
    return Segment(alpha, h, np.exp(rate * u))


def unit_jump_value(F, padded, n, side):
    """Per-node jump-at-0 rule: plain value less the jump corrections at step n."""
    acc = F.value_vec(padded, n)
    N = F.n_intervals
    if n <= N:
        j = N - n
        if side == "left" and j in F.atom_at:
            acc -= F.atom_at[j] * padded[N]
        if F.jump_loss is not None:
            acc -= F.jump_loss[j] * padded[N]
    return acc


def reference_heun(mu, h, T, phi=None):
    """Per-step Heun loop, the reference for the causal solve.

    Without ``phi`` it is the fundamental solution: unit jump at time 0,
    right limits in the predictor, left limits in the corrector.
    """
    F = CompiledFunctional(mu, h)
    N = F.n_intervals
    p = np.zeros(N + round(T / h) + 1)
    if phi is None:
        p[N] = 1.0
        k1_at = lambda n: unit_jump_value(F, p, n, "right")  # noqa: E731
        k2_at = lambda n: unit_jump_value(F, p, n, "left")  # noqa: E731
    else:
        p[: N + 1] = phi.values
        k1_at = k2_at = lambda n: F.value_vec(p, n)  # noqa: E731
    for n in range(p.size - N - 1):
        k1 = k1_at(n)
        p[N + n + 1] = p[N + n] + h * k1
        k2 = k2_at(n + 1)
        p[N + n + 1] = p[N + n] + 0.5 * h * (k1 + k2)
    return p


def windowed_err(values, ref, n_hist):
    """Largest error relative to max |ref| over the preceding delay window."""
    pad = np.concatenate([np.zeros(n_hist), np.abs(ref)])
    scale = np.array([pad[m : m + n_hist + 1].max() for m in range(ref.size)])
    return float((np.abs(values - ref) / np.maximum(scale, 1e-300)).max())


class TestAgainstPerStepHeun:
    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.floats(-2.0, 2.0)),
            max_size=3,
            unique_by=lambda t: t[0],
        ),
        st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=4),
        st.sampled_from((0.125, 0.025, 0.005)),
        st.floats(-1.0, 1.0),
    )
    def test_random_atom_plus_density(self, atom_spec, knot_values, h, phi_slope):
        atoms = tuple((-idx * 0.125, w) for idx, w in atom_spec)
        locs = np.linspace(-1.0, 0.0, len(knot_values))
        mu = SignedMeasure(1.0, atoms=atoms, density=tuple(zip(locs, knot_values)))
        T = 4.0
        N = round(1.0 / h)
        r = compute_resolvent(mu, h, T)
        ref = reference_heun(mu, h, T)
        assert windowed_err(r.trace.values, ref[N:], N) <= 1e-12
        phi = exp_phi(1.0, h, phi_slope)
        x = deterministic_solution(mu, phi, h, T)
        ref = reference_heun(mu, h, T, phi)
        assert windowed_err(x.trace.values, ref[N:], N) <= 1e-12

    def test_gbm_chain_at_two_hundred_thousand_points(self):
        # for mu = b delta_0 Heun is the chain (1 + h b + (h b)^2 / 2)^n
        h, b = 1e-4, -1.0
        r = compute_resolvent(SignedMeasure(1.0, atoms=((0.0, b),)), h, 20.0)
        n = np.arange(len(r.trace))
        exact = (1.0 + h * b + 0.5 * (h * b) ** 2) ** n
        assert np.abs(r.trace.values / exact - 1.0).max() <= 1e-11


class TestComputeResolvent:
    def test_scalar_ode(self):
        mu = SignedMeasure(1.0, atoms=((0.0, -1.0),))
        r = compute_resolvent(mu, 1e-3, 1.0)
        assert r.trace.values[0] == 1.0
        assert r.trace.values[-1] == pytest.approx(math.exp(-1.0), abs=5e-7)

    def test_pure_delay_ramp(self):
        # by hand: zero history makes r flat at 1 on [0,1], then slope 1
        mu = SignedMeasure(1.0, atoms=((-1.0, 1.0),))
        r = compute_resolvent(mu, 0.01, 2.0)
        t = r.trace.times()
        exact = np.where(t <= 1.0, 1.0, t)
        assert np.abs(r.trace.values - exact).max() < 1e-12

    def test_zero_measure(self):
        r = compute_resolvent(SignedMeasure(1.0), 0.1, 3.0)
        assert np.all(r.trace.values == 1.0)

    def test_step_must_divide_horizon(self):
        mu = SignedMeasure(1.0, atoms=((0.0, -1.0),))
        with pytest.raises(ConfigurationError) as err:
            compute_resolvent(mu, 0.3, 1.0)
        assert err.value.code == "GRID_MISALIGNED"

    @pytest.mark.parametrize("h", [0.0, -0.1, math.nan, math.inf])
    def test_step_must_be_positive_and_finite(self, h):
        with pytest.raises(ConfigurationError) as err:
            compute_resolvent(SignedMeasure(1.0, atoms=((0.0, -1.0),)), h, 1.0)
        assert err.value.code == "BAD_VALUE" and err.value.field == "step"

    def test_convergence_factor_on_halving(self):
        mu = SignedMeasure(1.0, atoms=((0.0, -0.7),))
        errs = []
        for h in (4e-3, 2e-3, 1e-3):
            r = compute_resolvent(mu, h, 5.0)
            t = r.trace.times()
            errs.append(np.abs(r.trace.values - np.exp(-0.7 * t)).max())
        assert 3.5 <= errs[0] / errs[1] <= 4.5
        assert 3.5 <= errs[1] / errs[2] <= 4.5


def segment_at(table, n):
    """The history segment of grid step n: padded values from t_n - alpha to t_n."""
    return table.padded[n : n + table.n_hist + 1]


class TestExtractSegment:
    def test_resolvent_at_zero(self):
        mu = SignedMeasure(1.0, atoms=((0.0, -1.0),))
        r = compute_resolvent(mu, 0.25, 1.0)
        assert list(segment_at(r, 0)) == [0.0, 0.0, 0.0, 0.0, 1.0]

    def test_pure_delay_at_one(self):
        mu = SignedMeasure(1.0, atoms=((-1.0, 1.0),))
        r = compute_resolvent(mu, 0.25, 2.0)
        assert np.allclose(segment_at(r, 4), 1.0, atol=1e-14)

    def test_solution_history(self):
        mu = SignedMeasure(1.0, atoms=((0.0, -1.0),))
        x = deterministic_solution(mu, const_phi(1.0, 0.25), 0.25, 1.0)
        assert np.all(segment_at(x, 0) == 1.0)


class TestDeterministicSolution:
    def test_scalar_ode(self):
        mu = SignedMeasure(1.0, atoms=((0.0, -1.0),))
        x = deterministic_solution(mu, const_phi(1.0, 1e-3), 1e-3, 2.0)
        t = x.trace.times()
        assert np.abs(x.trace.values - np.exp(-t)).max() < 1e-6

    def test_zero_initial_segment(self):
        mu = SignedMeasure(1.0, atoms=((0.0, -0.5), (-1.0, 0.25)))
        x = deterministic_solution(mu, const_phi(1.0, 0.01, 0.0), 0.01, 3.0)
        assert np.all(x.trace.values == 0.0)

    def test_exponential_history_stays_exponential(self):
        # with drift matching the history rate the flow continues e^{-t}
        mu = SignedMeasure(1.0, atoms=((0.0, -1.0),))
        x = deterministic_solution(mu, exp_phi(1.0, 1e-3, -1.0), 1e-3, 2.0)
        t = x.trace.times()
        assert np.abs(x.trace.values - np.exp(-t)).max() < 1e-6

    @staticmethod
    def _representation_gap(mu, phi_fn, h, T):
        """Max gap between the solution and its resolvent representation.

        Oracle: x(t) = phi(0) r(t) + sum_k w_k int_{s_k}^0 r(t+s_k-u) phi(u) du,
        the inner integral evaluated by the trapezoidal rule on the grid.
        """
        alpha = mu.alpha
        n = round(alpha / h)
        u = -alpha + h * np.arange(n + 1)
        u[-1] = 0.0
        phi_vals = phi_fn(u)
        phi = Segment(alpha, h, phi_vals)
        x = deterministic_solution(mu, phi, h, T)
        r = compute_resolvent(mu, h, T)
        rp = r.padded  # zero-extended to [-alpha, T]
        n_hist = r.n_hist
        worst = 0.0
        for t_idx in range(1, round(T / h) + 1):
            rep = phi_vals[-1] * r.trace.values[t_idx]
            for loc, w in mu.atoms:
                k = round(-loc / h)
                if k == 0:
                    continue
                # u runs from loc to 0; r(t + loc - u) read off the padded table
                rvals = rp[n_hist + t_idx - k : n_hist + t_idx + 1][::-1]
                inner = trapezoid(rvals * phi_vals[n - k :], h)
                # the zero-extension jump of r sits at u = t + loc; an interior
                # crossing node carries only half its trapezoid weight
                if 0 < t_idx < k:
                    inner -= 0.5 * h * phi_vals[n - k + t_idx]
                rep += w * inner
            worst = max(worst, abs(x.trace.values[t_idx] - rep))
        return worst

    @settings(max_examples=8)
    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.floats(-0.9, 0.9)),
            min_size=1,
            max_size=3,
            unique_by=lambda t: t[0],
        ),
        st.lists(st.floats(-1.5, 1.5), min_size=4, max_size=4),
    )
    def test_representation_identity(self, atom_spec, coeffs):
        atoms = tuple((-idx * 0.25, w) for idx, w in atom_spec)
        mu = SignedMeasure(1.0, atoms=atoms)
        a, b, c, d = coeffs

        def phi_fn(u):
            return a + b * u + c * np.sin(3.0 * u) + d * np.cos(2.0 * u)

        h = 0.025
        gap = self._representation_gap(mu, phi_fn, h, 2.0)
        scale = 1.0 + sum(abs(v) for v in coeffs)
        assert gap <= 5.0 * h * h * scale

    def test_representation_order_under_refinement(self):
        mu = SignedMeasure(1.0, atoms=((0.0, -0.6), (-0.5, 0.4), (-1.0, 0.3)))

        def phi_fn(u):
            return np.cos(2.0 * u) + 0.5 * u

        gaps = [self._representation_gap(mu, phi_fn, h, 2.0) for h in (0.02, 0.01, 0.005)]
        orders = [math.log2(gaps[i] / gaps[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9


class TestL2AndDecay:
    def test_exponential_norm(self):
        tr = GridTrace(1e-3, np.exp(-np.arange(20001) * 1e-3))
        value, tail = l2_norm_sq_tail(tr)
        assert value == pytest.approx(0.5, abs=1e-8)
        assert tail == pytest.approx(math.exp(-40.0) / 2.0, rel=1e-3)

    def test_zero_trace(self):
        assert l2_norm_sq_tail(GridTrace(0.1, np.zeros(101))) == (0.0, 0.0)

    def test_faster_decay(self):
        tr = GridTrace(1e-3, np.exp(-2.0 * np.arange(10001) * 1e-3))
        value, _ = l2_norm_sq_tail(tr)
        assert value == pytest.approx(0.25, abs=1e-8)

    def test_growing_trace_has_infinite_tail(self):
        tr = GridTrace(0.01, np.exp(np.arange(1001) * 0.01))
        _, tail = l2_norm_sq_tail(tr)
        assert math.isinf(tail)

    def test_decay_rate_exponential(self):
        tr = GridTrace(0.01, np.exp(-np.arange(1001) * 0.01))
        assert decay_rate_estimate(tr) == pytest.approx(1.0, rel=0.02)

    def test_decay_rate_flat(self):
        assert decay_rate_estimate(GridTrace(0.01, np.ones(1001))) == 0.0

    def test_decay_rate_growth_is_negative(self):
        tr = GridTrace(0.01, np.exp(np.arange(1001) * 0.01))
        assert decay_rate_estimate(tr) == pytest.approx(-1.0, rel=0.02)

    def test_decay_rate_oscillatory(self):
        t = np.arange(2001) * 0.01
        tr = GridTrace(0.01, np.exp(-t) * np.cos(7.0 * t))
        assert decay_rate_estimate(tr) == pytest.approx(1.0, rel=0.15)

    def test_requires_eight_points(self):
        with pytest.raises(ConfigurationError):
            decay_rate_estimate(GridTrace(0.1, np.ones(5)))

    @pytest.mark.parametrize("h", [1e-3, 0.1, 1.0 / 3.0, 7e-5])
    @pytest.mark.parametrize("n", [1, 2, 20001, 189001])
    def test_times_are_the_scaled_integer_grid(self, h, n):
        assert np.array_equal(GridTrace(h, np.zeros(n)).times(), h * np.arange(n))

    @pytest.mark.parametrize("name", ["decay", "oscillatory", "growth", "flat", "subnormal",
                                      "resolvent"])
    def test_closed_form_fit_is_polyfit(self, name):
        # the fit by np.polyfit, on the window and envelopes of _envelope_fit
        def reference(trace):
            v, t = np.abs(trace.values), trace.times()
            n = int(np.flatnonzero(v >= np.finfo(float).tiny).max(initial=-1)) + 1
            w0 = 3 * max(n - 1, 0) // 4

            def logslope(env):
                tw, ew = t[w0:n], env[w0:n]
                mask = ew > 0.0
                slope, intercept = np.polyfit(tw[mask], np.log(ew[mask]), 1)
                return slope, math.exp(intercept + slope * t[-1])

            slope, env_T = logslope(np.maximum.accumulate(v[::-1])[::-1])
            if slope < -1e-12:
                return -slope, env_T
            gslope, genv_T = logslope(np.maximum.accumulate(v))
            return (-gslope, genv_T) if gslope > 1e-12 else (0.0, env_T)

        t = np.arange(4001) * 0.01
        values = {
            "decay": np.exp(-t),
            "oscillatory": np.exp(-0.3 * t) * np.cos(7.0 * t),
            "growth": np.exp(0.5 * t) * (2.0 + np.sin(t)),
            "flat": 1.0 + 0.0 * t,
            "subnormal": np.exp(-20.0 * t),
            "resolvent": None,
        }[name]
        if values is None:
            mu = SignedMeasure(1.0, atoms=((0.0, -1.0), (-1.0, -0.5)))
            trace = compute_resolvent(mu, 0.01, 40.0).trace
        else:
            trace = GridTrace(0.01, values)
        rate, env_T = _envelope_fit(trace)
        ref_rate, ref_env = reference(trace)
        assert rate == pytest.approx(ref_rate, rel=1e-12, abs=1e-15)
        assert env_T == pytest.approx(ref_env, rel=1e-12)

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from sdde_meansq import (
    CRITICAL,
    DEGENERATE,
    SUBCRITICAL,
    SUPERCRITICAL,
    GridTrace,
    NumericalError,
    SignedMeasure,
    analyze,
    classify,
    compute_resolvent,
    detect_degenerate,
    example_norm_formula,
    g_of_r_trace,
    kernel_first_moment,
    limit_constant,
    l2_norm_sq_tail,
    parse_config,
    renewal_mean_square,
    solve_b0,
    solve_kappa_supercritical,
    solve_theta_subcritical,
    tilted_kernel_mass,
)
from sdde_meansq.cli import main as cli_main
from sdde_meansq import renewal
from sdde_meansq.measures import CompiledFunctional
from sdde_meansq.quadrature import corrected_trapezoid
from sdde_meansq.stability import malthusian_rate

E = math.e


README_DOC = {
    "alpha": 1, "mu": {"atoms": [[0, -1]]},
    "nu": {"atoms": [[0, 1.0], [-1, 0.5]], "density": [[-1, 0], [0, 0.25]]},
    "phi": {"constant": 1}, "numerical": {"h": 0.001, "T": 20},
}


def gbm_doc(b, c):
    return {
        "alpha": 1, "mu": {"atoms": [[0, b]]}, "nu": {"atoms": [[0, c]]},
        "phi": {"constant": 1}, "numerical": {"h": 0.001, "T": 20},
    }


def exp_kernel(scale, rate, h=1e-3, T=20.0):
    t = h * np.arange(round(T / h) + 1)
    return GridTrace(h, scale * np.exp(rate * t))


def two_atom_problem(b, c, d, alpha, h=1e-3, T=20.0):
    mu = SignedMeasure(alpha, atoms=((0.0, b),))
    nu_atoms = []
    if c != 0.0:
        nu_atoms.append((0.0, c))
    if d != 0.0:
        nu_atoms.append((-alpha, d))
    nu = SignedMeasure(alpha, atoms=tuple(nu_atoms))
    return mu, nu


def unit_jump_value(F, padded, n, side):
    """Per-node jump-at-0 rule: plain value less the jump corrections at step n."""
    acc = F.value(padded, n)
    N = F.n_intervals
    if n <= N:
        j = N - n
        v0 = padded[N]
        if side == "left" and j in F.atom_at:
            acc -= F.atom_at[j] * v0
        if F.jump_loss is not None:
            acc -= F.jump_loss[j] * v0
    return acc


def numeric_norm_sq(b, c, d, alpha, h=1e-3, T=20.0):
    mu, nu = two_atom_problem(b, c, d, alpha)
    r = compute_resolvent(mu, h, T)
    return l2_norm_sq_tail(g_of_r_trace(r, nu))


class TestGOfRTrace:
    def test_point_evaluation(self):
        mu = SignedMeasure(1.0, atoms=((0.0, -1.0),))
        nu = SignedMeasure(1.0, atoms=((0.0, 1.0),))
        r = compute_resolvent(mu, 1e-3, 5.0)
        gr = g_of_r_trace(r, nu)
        t = gr.times()
        assert np.abs(gr.values - np.exp(-t)).max() < 1e-6

    def test_zero_extension_before_delay(self):
        mu = SignedMeasure(1.0, atoms=((0.0, -1.0),))
        nu = SignedMeasure(1.0, atoms=((-1.0, 0.7),))
        r = compute_resolvent(mu, 0.01, 3.0)
        gr = g_of_r_trace(r, nu)
        n = round(1.0 / 0.01)
        assert np.all(gr.values[:n] == 0.0)

    def test_annihilating_combination(self):
        # weights (-e, 1) with matching drift: the trace vanishes past the delay
        mu = SignedMeasure(1.0, atoms=((0.0, -1.0),))
        nu = SignedMeasure(1.0, atoms=((0.0, -E), (-1.0, 1.0)))
        r = compute_resolvent(mu, 1e-3, 10.0)
        gr = g_of_r_trace(r, nu)
        n = round(1.0 / 1e-3)
        assert np.abs(gr.values[n + 1 :]).max() < 1e-6

    def test_jump_node_holds_mean_square_value(self):
        # at the crossing the stored value squares to the average of the
        # one-sided squares: left -e^{-s}, right 0 at s = 1
        mu = SignedMeasure(1.0, atoms=((0.0, -1.0),))
        nu = SignedMeasure(1.0, atoms=((0.0, -E), (-1.0, 1.0)))
        r = compute_resolvent(mu, 1e-3, 10.0)
        gr = g_of_r_trace(r, nu)
        n = round(1.0 / 1e-3)
        assert gr.values[n] ** 2 == pytest.approx(0.5, rel=1e-4)

    def test_shares_the_unit_jump_rule(self):
        # noise atoms at lags 0, -alpha/4 and -alpha plus a density that is
        # nonzero at both segment ends; the lag -alpha/4 and -alpha atoms
        # cross time 0 at s = alpha/4 and s = alpha (nodes 2 and 8)
        h = 0.125
        mu = SignedMeasure(
            1.0, atoms=((0.0, -1.0), (-0.5, 0.25)), density=((-1.0, 0.3), (0.0, -0.2))
        )
        nu = SignedMeasure(
            1.0,
            atoms=((0.0, 0.7), (-0.25, -1.3), (-1.0, 0.4)),
            density=((-1.0, 0.5), (-0.5, -0.2), (0.0, 0.9)),
        )
        r = compute_resolvent(mu, h, 3.0)
        gr = g_of_r_trace(r, nu)
        F = CompiledFunctional(nu, h)
        for n in range(len(gr)):
            right = unit_jump_value(F, r.padded, n, "right")
            expected = right
            if n in (2, 8):
                left = unit_jump_value(F, r.padded, n, "left")
                assert left != right
                expected = math.copysign(math.sqrt(0.5 * (left * left + right * right)), right)
            assert gr.values[n] == pytest.approx(expected, rel=1e-12, abs=1e-14)


class TestNormSq:
    @pytest.mark.parametrize(
        "b,c,d,alpha,expected",
        [(-1.0, 1.0, 0.0, 1.0, 0.5), (-1.0, 0.0, 1.0, 1.0, 0.5), (-1.0, 1.0, 1.0, math.log(2.0), 1.5)],
    )
    def test_closed_form_cases(self, b, c, d, alpha, expected):
        assert example_norm_formula(b, c, d, alpha) == pytest.approx(expected, rel=1e-12)
        h = alpha / round(alpha / 1e-3)
        T = h * round(20.0 / h)
        value, tail = numeric_norm_sq(b, c, d, alpha, h, T)
        assert value == pytest.approx(expected, abs=max(1e-4, 5 * h * h + tail))

    def test_formula_domain(self):
        with pytest.raises(ValueError):
            example_norm_formula(0.0, 1.0, 1.0, 1.0)

    @given(st.floats(-3.0, -0.2), st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.1, 2.0))
    def test_formula_symmetric_in_noise_weights(self, b, c, d, alpha):
        assert example_norm_formula(b, c, d, alpha) == pytest.approx(
            example_norm_formula(b, d, c, alpha), rel=1e-12, abs=1e-300
        )

    def test_scaling_law(self):
        mu = SignedMeasure(1.0, atoms=((0.0, -1.0),))
        nu = SignedMeasure(1.0, atoms=((0.0, 1.0), (-1.0, 0.5)))
        r = compute_resolvent(mu, 0.01, 15.0)
        base, _ = l2_norm_sq_tail(g_of_r_trace(r, nu))
        for lam in (0.5, 2.0, 3.0):
            scaled, _ = l2_norm_sq_tail(g_of_r_trace(r, nu.scaled(lam)))
            assert scaled == pytest.approx(lam * lam * base, rel=1e-12)

    def test_classification_flips_across_unit_scale(self):
        mu = SignedMeasure(1.0, atoms=((0.0, -1.0),))
        nu = SignedMeasure(1.0, atoms=((0.0, 1.0), (-1.0, 0.5)))
        r = compute_resolvent(mu, 0.01, 15.0)
        base, tail = l2_norm_sq_tail(g_of_r_trace(r, nu))
        crit = 1.0 / math.sqrt(base)
        for lam, expected in ((0.9 * crit, SUBCRITICAL), (1.1 * crit, SUPERCRITICAL)):
            value, tail = l2_norm_sq_tail(g_of_r_trace(r, nu.scaled(lam)))
            assert classify(value, tail) == expected


class TestClassify:
    def test_three_ranges(self):
        assert classify(0.5, 1e-9, 1e-3) == SUBCRITICAL
        assert classify(1.0, 1e-9, 1e-3) == CRITICAL
        assert classify(1.5, 1e-9, 1e-3) == SUPERCRITICAL

    def test_default_band(self):
        assert classify(1.0005, 1e-9) == CRITICAL
        assert classify(1.002, 1e-9) == SUPERCRITICAL
        assert classify(1.002, 1e-3) == CRITICAL  # widened by 3x truncation


class TestExponents:
    def test_kappa_closed_form(self):
        # kernel 4 e^{-2s}: tilted mass 4/(kappa+2) hits 1 at kappa = 2
        kappa = solve_kappa_supercritical(exp_kernel(4.0, -2.0))
        assert kappa == pytest.approx(2.0, abs=1e-8)

    def test_kappa_matches_moment_rate(self):
        # noise weight sqrt(3), drift -1: kappa = 2b + c^2 = 1
        kappa = solve_kappa_supercritical(exp_kernel(3.0, -2.0))
        assert kappa == pytest.approx(1.0, abs=1e-8)

    def test_kappa_consistency(self):
        mu = SignedMeasure(1.0, atoms=((0.0, -1.0),))
        nu = SignedMeasure(1.0, atoms=((0.0, -E), (-1.0, 1.0)))
        r = compute_resolvent(mu, 1e-3, 20.0)
        gr = g_of_r_trace(r, nu)
        g = GridTrace(gr.step, gr.values**2)
        kappa = solve_kappa_supercritical(g)
        assert tilted_kernel_mass(g, kappa) == pytest.approx(1.0, abs=1e-9)

    def test_kappa_requires_excess_mass(self):
        with pytest.raises(NumericalError):
            solve_kappa_supercritical(exp_kernel(1.0, -2.0))

    def test_kappa_without_a_root_raises(self):
        # h g(0) = 4: the corrected weight of s = 0 alone gives mass 25/18 > 1
        with pytest.raises(NumericalError, match="failed to bracket"):
            solve_kappa_supercritical(exp_kernel(400.0, -2.0, h=0.01))

    def test_theta_closed_form(self):
        # kernel e^{-2s}: upward-tilted mass 1/(2-theta) hits 1 at theta = 1
        theta, bound = solve_theta_subcritical(exp_kernel(1.0, -2.0), rho=1.0)
        assert theta == pytest.approx(1.0, abs=1e-8)
        assert bound == pytest.approx(1.0, abs=1e-8)
        assert tilted_kernel_mass(exp_kernel(1.0, -2.0), -theta) == pytest.approx(1.0, abs=1e-9)

    def test_theta_higher_rate(self):
        # slow-decaying tilted integrand: needs the longer window for its tail
        theta, _ = solve_theta_subcritical(exp_kernel(0.5, -2.0, T=40.0), rho=1.0)
        assert theta == pytest.approx(1.5, abs=1e-8)

    def test_theta_absent_for_zero_kernel(self):
        theta, bound = solve_theta_subcritical(exp_kernel(0.0, -2.0), rho=1.0)
        assert theta is None
        assert bound == pytest.approx(0.95 * 2.0, rel=1e-12)

    @pytest.mark.parametrize("doc", [README_DOC, gbm_doc(-1.0, 2.0)], ids=["readme", "gbm-c2"])
    def test_kappa_and_theta_are_the_renewal_tilt(self, doc, monkeypatch):
        tilts = []

        def spy(g):
            tilts.append(malthusian_rate(g))
            return tilts[-1]

        monkeypatch.setattr(renewal, "malthusian_rate", spy)
        analysis = analyze(parse_config(json.dumps(doc)))
        renewal_mean_square(analysis)
        rep = analysis.report
        rate = rep.kappa if rep.classification == SUPERCRITICAL else -rep.theta
        assert tilts == [rate]

    @pytest.mark.parametrize("offset", [-1e-9, 1e-9, -1e-6, 1e-6])
    def test_theta_cap_agrees_with_the_tilted_mass(self, offset):
        # the root sits just past (offset > 0) or just inside the cap
        g = exp_kernel(0.5, -2.0, T=40.0)
        root = -malthusian_rate(g)
        cap = root * (1.0 - offset)
        theta, bound = solve_theta_subcritical(g, rho=cap / (0.95 * 2.0))
        assert (theta is None) == (tilted_kernel_mass(g, -cap) < 1.0) == (offset > 0.0)
        assert bound == (cap if theta is None else theta)


class TestLimitConstants:
    def test_critical_unit_scale(self):
        # noise weight sqrt(2), drift -1: limit equals the squared start value
        h = 1e-3
        r = compute_resolvent(SignedMeasure(1.0, atoms=((0.0, -1.0),)), h, 20.0)
        f = exp_kernel(2.0, -2.0, h)
        g = exp_kernel(2.0, -2.0, h)
        assert limit_constant(f, r, g, 0.0) == pytest.approx(1.0, abs=1e-6)

    def test_critical_scales_with_start(self):
        h = 1e-3
        r = compute_resolvent(SignedMeasure(1.0, atoms=((0.0, -1.0),)), h, 20.0)
        f = exp_kernel(8.0, -2.0, h)  # start value 2 doubles the forcing scale
        g = exp_kernel(2.0, -2.0, h)
        assert limit_constant(f, r, g, 0.0) == pytest.approx(4.0, abs=1e-6)

    def test_critical_zero_forcing(self):
        h = 1e-3
        r = compute_resolvent(SignedMeasure(1.0, atoms=((0.0, -1.0),)), h, 20.0)
        f = exp_kernel(0.0, -2.0, h)
        g = exp_kernel(2.0, -2.0, h)
        assert limit_constant(f, r, g, 0.0) == 0.0

    @pytest.mark.parametrize("doc", [README_DOC, gbm_doc(-1.0, math.sqrt(2.0))],
                             ids=["readme", "gbm-critical"])
    def test_rate_zero_is_the_critical_formula(self, doc):
        a = analyze(parse_config(json.dumps(doc)))
        f, g, h = a.forcing, a.kernel, a.kernel.step
        s = g.times()
        assert kernel_first_moment(g, 0.0) == corrected_trapezoid(s * g.values * np.exp(-0.0 * s), h)
        expected = corrected_trapezoid(f.values, h) * corrected_trapezoid(
            a.r.trace.values**2, h
        ) / kernel_first_moment(g, 0.0)
        assert limit_constant(f, a.r, g, 0.0) == expected
        if a.report.classification == CRITICAL:
            assert a.report.limit_constant == expected

    def test_supercritical_unit_scale(self):
        h = 1e-3
        mu = SignedMeasure(1.0, atoms=((0.0, -1.0),))
        r = compute_resolvent(mu, h, 20.0)
        f = exp_kernel(4.0, -2.0, h)
        g = exp_kernel(4.0, -2.0, h)
        assert limit_constant(f, r, g, 2.0) == pytest.approx(1.0, abs=1e-4)

    def test_supercritical_scales_with_start(self):
        h = 1e-3
        mu = SignedMeasure(1.0, atoms=((0.0, -1.0),))
        r = compute_resolvent(mu, h, 20.0)
        f = exp_kernel(36.0, -2.0, h)  # start value 3
        g = exp_kernel(4.0, -2.0, h)
        assert limit_constant(f, r, g, 2.0) == pytest.approx(9.0, abs=1e-3)

    def test_supercritical_zero_forcing(self):
        h = 1e-3
        mu = SignedMeasure(1.0, atoms=((0.0, -1.0),))
        r = compute_resolvent(mu, h, 20.0)
        f = exp_kernel(0.0, -2.0, h)
        g = exp_kernel(4.0, -2.0, h)
        assert limit_constant(f, r, g, 2.0) == 0.0


class TestDetectDegenerate:
    def test_annihilated_exponential_start(self):
        mu = SignedMeasure(1.0, atoms=((0.0, -1.0),))
        nu = SignedMeasure(1.0, atoms=((0.0, -E), (-1.0, 1.0)))
        phi = lambda u: np.exp(-np.asarray(u, dtype=float))
        assert detect_degenerate(mu, nu, phi, 1e-3, 20.0) is True

    def test_zero_noise_measure(self):
        mu = SignedMeasure(1.0, atoms=((0.0, -1.0),))
        nu = SignedMeasure(1.0)
        phi = lambda u: np.cos(np.asarray(u, dtype=float))
        assert detect_degenerate(mu, nu, phi, 0.01, 5.0) is True

    def test_plain_instance_fails_fast(self):
        mu = SignedMeasure(1.0, atoms=((0.0, -1.0),))
        nu = SignedMeasure(1.0, atoms=((0.0, 1.0),))
        phi = lambda u: np.ones_like(np.asarray(u, dtype=float))
        assert detect_degenerate(mu, nu, phi, 1e-3, 20.0) is False

    def test_zero_start_is_degenerate(self):
        mu = SignedMeasure(1.0, atoms=((0.0, -1.0),))
        nu = SignedMeasure(1.0, atoms=((0.0, 1.0),))
        phi = lambda u: np.zeros_like(np.asarray(u, dtype=float))
        assert detect_degenerate(mu, nu, phi, 0.01, 5.0) is True


class TestSolveB0:
    def test_no_delay_weight(self):
        assert solve_b0(1.0, 0.0, 1.0) == pytest.approx(-0.5, abs=1e-9)

    def test_no_instant_weight(self):
        assert solve_b0(0.0, 2.0, 0.7) == pytest.approx(-2.0, abs=1e-9)

    def test_mixed_weights(self):
        # oracle: largest root of 1 + 2^b + b = 0 by bracketing root-finder
        oracle = brentq(lambda b: 1.0 + 2.0**b + b, -2.0, -1.0, xtol=1e-12)
        assert solve_b0(1.0, 1.0, math.log(2.0)) == pytest.approx(oracle, abs=1e-9)

    def test_boundary_is_where_norm_crosses_one(self):
        b0 = solve_b0(1.0, 1.0, 1.0)
        assert example_norm_formula(b0, 1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            solve_b0(0.0, 0.0, 1.0)


class TestAnalyzePipeline:
    def test_subcritical_report(self):
        doc = {
            "alpha": 1, "mu": {"atoms": [[0, -1]]}, "nu": {"atoms": [[0, 1]]},
            "phi": {"constant": 1}, "numerical": {"h": 0.001, "T": 20},
        }
        rep = analyze(parse_config(json.dumps(doc))).report
        assert rep.classification == SUBCRITICAL
        assert rep.norm_sq_gr == pytest.approx(0.5, abs=1e-4)
        assert rep.theta == pytest.approx(1.0, abs=1e-4)
        assert rep.kappa is None

    def test_supercritical_report(self):
        doc = {
            "alpha": math.log(2.0), "mu": {"atoms": [[0, -1]]},
            "nu": {"atoms": [[0, 1], [-math.log(2.0), 1]]},
            "phi": {"constant": 1},
            "numerical": {"h": math.log(2.0) / 693, "T": math.log(2.0) / 693 * 20000},
        }
        rep = analyze(parse_config(json.dumps(doc))).report
        assert rep.classification == SUPERCRITICAL
        assert rep.norm_sq_gr == pytest.approx(1.5, abs=1e-4)
        assert rep.kappa is not None and rep.kappa > 0.0
        assert rep.m_kappa_zeta is not None and rep.m_kappa_zeta > 0.0

    def test_no_delay_instance(self):
        doc = {
            "alpha": 0, "mu": {"atoms": [[0, -1]]}, "nu": {"atoms": [[0, 1]]},
            "phi": {"constant": 1}, "numerical": {"h": 0.001, "T": 20},
        }
        rep = analyze(parse_config(json.dumps(doc))).report
        assert rep.classification == SUBCRITICAL
        assert rep.norm_sq_gr == pytest.approx(0.5, abs=1e-4)

    def test_degenerate_report_overrides_statistic(self):
        doc = {
            "alpha": 1, "mu": {"atoms": [[0, -1]]},
            "nu": {"atoms": [[0, -E], [-1, 1]]}, "phi": {"exponential": -1},
            "numerical": {"h": 0.001, "T": 20},
        }
        rep = analyze(parse_config(json.dumps(doc))).report
        assert rep.classification == DEGENERATE
        assert rep.degenerate is True
        assert rep.norm_sq_gr == pytest.approx((E * E - 1.0) / 2.0, abs=1e-4)
        assert rep.norm_sq_gr > 1.0
        assert rep.limit_constant == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFastDecay:
    def test_theta_beyond_the_exp_range(self):
        # theta = -2b - c^2 = 40, and e^(theta T) = e^800 is not a float
        rep = analyze(parse_config(json.dumps(gbm_doc(-30, math.sqrt(20))))).report
        assert rep.classification == SUBCRITICAL
        assert rep.theta == pytest.approx(40.0, abs=0.02)
        assert rep.rate_bound == rep.theta

    def test_theta_above_the_cap(self):
        # theta = 39 lies above the cap 0.95 * 2 * 20 = 38
        rep = analyze(parse_config(json.dumps(gbm_doc(-20, 1)))).report
        assert rep.theta is None
        assert rep.rate_bound == pytest.approx(38.0, abs=0.02)

    def test_subnormal_resolvent_tail_still_decays(self, tmp_path):
        # r = e^(-50 t) leaves the normal float range near t = 14.2
        cfg = tmp_path / "fast.json"
        cfg.write_text(json.dumps(gbm_doc(-50, 1)))
        assert cli_main(["classify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["classification"] == SUBCRITICAL
        assert rep["decay_rate"] == pytest.approx(50.0, rel=0.01)


@settings(max_examples=6)
@given(
    st.floats(-2.5, -0.4),
    st.floats(0.0, 1.5),
    st.floats(0.0, 1.5),
    st.integers(4, 30),
)
def test_norm_cross_validation(b, c, d, alpha_steps):
    # numerically computed statistic against the closed form, coarse grid
    alpha = alpha_steps * 0.05
    h = 0.005
    T = h * round(max(20.0, 12.0 / abs(b)) / h)
    value, tail = numeric_norm_sq(b, c, d, alpha, h, T)
    exact = example_norm_formula(b, c, d, alpha)
    assert value == pytest.approx(exact, abs=5 * h * h + tail + 1e-9)

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdde_meansq import (
    ConfigurationError,
    GridTrace,
    NumericalError,
    RenewalProblem,
    SignedMeasure,
    analyze,
    compute_resolvent,
    mean_square_trace,
    parse_config,
    solve_renewal,
)
from sdde_meansq.cli import main as cli_main
from sdde_meansq.quadrature import _BASE, _FFT_BLOCK
from sdde_meansq.stability import malthusian_rate

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def grid(h, T):
    return h * np.arange(round(T / h) + 1)


def trace(h, values):
    return GridTrace(h, np.asarray(values, dtype=float))


def reference_renewal(f, g, h):
    """O(n^2) trapezoid march, the reference for the fast solver."""
    y = np.empty(f.size)
    y[0] = f[0]
    scale = 1.0 / (1.0 - 0.5 * h * g[0])
    for n in range(1, f.size):
        conv = 0.5 * g[n] * y[0]
        if n > 1:
            conv += float(np.dot(g[1:n], y[n - 1 : 0 : -1]))
        y[n] = max((f[n] + h * conv) * scale, 0.0)
    return y


def reference_mean_square(x, rsq, y, h):
    """O(n^2) trapezoid convolution x^2 + h (r^2 * y), the reference."""
    out = np.empty(y.size)
    out[0] = x[0] ** 2
    for n in range(1, y.size):
        conv = 0.5 * (rsq[0] * y[n] + rsq[n] * y[0])
        if n > 1:
            conv += float(np.dot(rsq[1:n], y[n - 1 : 0 : -1]))
        out[n] = x[n] ** 2 + h * conv
    return out


def max_rel_err(values, ref):
    """Largest relative error over the reference values in the normal float range."""
    normal = ref >= np.finfo(float).tiny
    assert np.all(np.abs(values[~normal]) < 1e-300)
    return float(np.abs(values[normal] / ref[normal] - 1.0).max())


def problem_doc(mu, nu, h, T):
    return {"alpha": 1, "mu": {"atoms": mu}, "nu": {"atoms": nu},
            "phi": {"constant": 1}, "numerical": {"h": h, "T": T}}


class TestSolveRenewal:
    def test_zero_kernel_returns_forcing(self):
        t = grid(0.01, 2.0)
        f = np.exp(-t)
        y = solve_renewal(RenewalProblem(trace(0.01, f), trace(0.01, np.zeros_like(t))))
        assert np.array_equal(y.values, f)

    def test_unit_forcing_unit_kernel(self):
        # differentiating y = 1 + int y gives y' = y, so y = e^t
        h = 1e-3
        t = grid(h, 1.0)
        y = solve_renewal(RenewalProblem(trace(h, np.ones_like(t)), trace(h, np.ones_like(t))))
        assert y.values[0] == 1.0
        assert y.values[-1] == pytest.approx(math.e, abs=1e-6)

    def test_growing_exponential_solution(self):
        # f = g = 4 e^{-2t} forces y = 4 e^{2t}
        h = 1e-3
        t = grid(h, 2.0)
        fg = 4.0 * np.exp(-2.0 * t)
        y = solve_renewal(RenewalProblem(trace(h, fg), trace(h, fg.copy())))
        exact = 4.0 * np.exp(2.0 * t)
        assert np.abs(y.values / exact - 1.0).max() < 2e-5

    def test_unit_mass_kernel_levels_off(self):
        # kernel mass exactly 1: y settles at (int f) / (int s g) = 2
        h = 1e-3
        t = grid(h, 20.0)
        fg = 2.0 * np.exp(-2.0 * t)
        y = solve_renewal(RenewalProblem(trace(h, fg), trace(h, fg.copy())))
        assert y.values[-1] == pytest.approx(2.0, abs=1e-3)

    def test_grid_refinement_second_order(self):
        errs = []
        for h in (4e-3, 2e-3, 1e-3):
            t = grid(h, 1.0)
            y = solve_renewal(
                RenewalProblem(trace(h, np.ones_like(t)), trace(h, np.ones_like(t)))
            )
            errs.append(abs(y.values[-1] - math.e))
        assert 3.5 <= errs[0] / errs[1] <= 4.5
        assert 3.5 <= errs[1] / errs[2] <= 4.5

    def test_diagonal_weight_must_be_small(self):
        t = grid(0.5, 2.0)
        with pytest.raises(ConfigurationError) as err:
            solve_renewal(RenewalProblem(trace(0.5, np.ones_like(t)), trace(0.5, 5.0 * np.ones_like(t))))
        assert err.value.code == "STEP_TOO_LARGE"

    def test_negative_forcing_rejected(self):
        t = grid(0.1, 1.0)
        with pytest.raises(ConfigurationError):
            RenewalProblem(trace(0.1, -np.ones_like(t)), trace(0.1, np.zeros_like(t)))

    def test_mismatched_grids_rejected(self):
        with pytest.raises(ConfigurationError):
            RenewalProblem(trace(0.1, np.ones(11)), trace(0.1, np.ones(12)))

    @settings(max_examples=25)
    @given(
        st.lists(st.floats(0.0, 2.0), min_size=6, max_size=6),
        st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
        st.lists(st.floats(0.0, 2.0), min_size=6, max_size=6),
    )
    def test_monotone_in_forcing(self, f1, bump, g):
        # pointwise larger forcing cannot decrease the solution
        h = 0.1
        f2 = [a + b for a, b in zip(f1, bump)]
        kernel = trace(h, g)
        y1 = solve_renewal(RenewalProblem(trace(h, f1), kernel))
        y2 = solve_renewal(RenewalProblem(trace(h, f2), trace(h, g)))
        assert np.all(y2.values - y1.values >= -1e-12)

    @settings(max_examples=25)
    @given(
        st.lists(st.floats(0.0, 2.0), min_size=6, max_size=6),
        st.lists(st.floats(0.0, 2.0), min_size=6, max_size=6),
    )
    def test_nonnegative_solution(self, f, g):
        h = 0.1
        y = solve_renewal(RenewalProblem(trace(h, f), trace(h, g)))
        assert np.all(y.values >= 0.0)


class TestMeanSquareTrace:
    def test_zero_y_gives_squared_solution(self):
        h = 0.01
        mu = SignedMeasure(1.0, atoms=((0.0, -1.0),))
        r = compute_resolvent(mu, h, 2.0)
        t = grid(h, 2.0)
        x = trace(h, np.exp(-t))
        out = mean_square_trace(x, r, trace(h, np.zeros_like(t)))
        assert np.array_equal(out.values, x.values**2)

    def test_growing_second_moment(self):
        # drift -1, noise weight 2: second moment is e^{2t}, about 7.389 at t=1
        h = 1e-3
        mu = SignedMeasure(1.0, atoms=((0.0, -1.0),))
        r = compute_resolvent(mu, h, 2.0)
        t = grid(h, 2.0)
        x = trace(h, np.exp(-t))
        y = trace(h, 4.0 * np.exp(2.0 * t))
        out = mean_square_trace(x, r, y)
        exact = np.exp(2.0 * t)
        assert out.values[round(1.0 / h)] == pytest.approx(math.exp(2.0), rel=1e-5)
        assert np.abs(out.values / exact - 1.0).max() < 1e-4

    def test_decaying_second_moment(self):
        # drift -1, unit noise weight: second moment is e^{-t}
        h = 1e-3
        mu = SignedMeasure(1.0, atoms=((0.0, -1.0),))
        r = compute_resolvent(mu, h, 2.0)
        t = grid(h, 2.0)
        x = trace(h, np.exp(-t))
        y = trace(h, np.exp(-t))
        out = mean_square_trace(x, r, y)
        assert out.values[round(1.0 / h)] == pytest.approx(math.exp(-1.0), rel=1e-5)

    def test_lower_bound_by_squared_solution(self):
        h = 0.01
        mu = SignedMeasure(1.0, atoms=((0.0, -0.5), (-1.0, 0.2)))
        r = compute_resolvent(mu, h, 3.0)
        t = grid(h, 3.0)
        x = trace(h, np.exp(-0.3 * t) * np.cos(t))
        y = trace(h, 0.5 * np.exp(-t))
        out = mean_square_trace(x, r, y)
        assert np.all(out.values >= x.values**2 - 1e-15)

    def test_grid_mismatch_rejected(self):
        mu = SignedMeasure(1.0, atoms=((0.0, -1.0),))
        r = compute_resolvent(mu, 0.01, 1.0)
        with pytest.raises(ConfigurationError):
            mean_square_trace(trace(0.02, np.ones(51)), r, trace(0.02, np.ones(51)))


#: grid sizes on both sides of the march block and of the FFT block sizes
LENGTHS = (1, 2, _BASE - 1, _BASE + 1, 2 * _BASE + 1, _FFT_BLOCK // 2 - 1,
           _FFT_BLOCK // 2 + 1, _FFT_BLOCK - 1, _FFT_BLOCK + 1, 3 * _FFT_BLOCK + 7)


class TestAgainstReference:
    @settings(max_examples=30)
    @given(
        st.sampled_from(LENGTHS),
        st.integers(0, 2**32 - 1),
        st.sampled_from((1e-3, 1e-2)),
        st.floats(0.01, 4.0),
        st.floats(0.0, 3.0),
        st.floats(0.0, 3.0),
        st.booleans(),
    )
    def test_random_nonnegative_data(self, n, seed, h, g_scale, g_decay, f_decay, g0_zero):
        rng = np.random.default_rng(seed)
        t = h * np.arange(n)
        f = (0.05 + rng.random(n)) * np.exp(-f_decay * t)
        g = g_scale * rng.random(n) * np.exp(-g_decay * t)
        if g0_zero:
            g[0] = 0.0
        y = solve_renewal(RenewalProblem(trace(h, f), trace(h, g)))
        y_ref = reference_renewal(f, g, h)
        assert max_rel_err(y.values, y_ref) <= 1e-12

        r = compute_resolvent(SignedMeasure(1.0, atoms=((0.0, -g_decay),)), h, h * (n - 1))
        x = trace(h, 0.1 + rng.random(n))
        msq = mean_square_trace(x, r, y)
        ref = reference_mean_square(x.values, r.trace.values**2, y.values, h)
        assert max_rel_err(msq.values, ref) <= 1e-12

    @pytest.mark.parametrize(
        "mu, nu",
        [
            ([[0, -1]], [[0, 2]]),  # gbm c=2: E|X|^2 grows like e^(2t)
            ([[-1, -2]], [[0, 0.5]]),  # unstable drift: |r| grows
            ([[0, -50]], [[0, 1]]),  # E|X|^2 = e^{-99t}: e^{99t} overflows, y underflows
        ],
        ids=["gbm-c2", "unstable-delay-drift", "fast-decay"],
    )
    def test_pipeline_problems(self, mu, nu):
        analysis = analyze(parse_config(json.dumps(problem_doc(mu, nu, 1e-3, 20))))
        h = analysis.forcing.step
        y = solve_renewal(RenewalProblem(analysis.forcing, analysis.kernel))
        assert y.values.size >= 20001
        y_ref = reference_renewal(analysis.forcing.values, analysis.kernel.values, h)
        assert max_rel_err(y.values, y_ref) <= 1e-12
        msq = mean_square_trace(analysis.x.trace, analysis.r, y)
        ref = reference_mean_square(
            analysis.x.trace.values, analysis.r.trace.values**2, y_ref, h
        )
        assert max_rel_err(msq.values, ref) <= 1e-12

    def test_closed_form_at_two_hundred_thousand_points(self):
        # f = g = 4 e^{-2t} forces y = 4 e^{2t}; n = 200001
        h = 1e-4
        t = grid(h, 20.0)
        fg = 4.0 * np.exp(-2.0 * t)
        y = solve_renewal(RenewalProblem(trace(h, fg), trace(h, fg.copy())))
        assert y.values.size == 200001
        assert max_rel_err(y.values, 4.0 * np.exp(2.0 * t)) < 1e-5


class TestMalthusianRate:
    def test_no_mass_past_zero(self):
        g = np.zeros(11)
        g[0] = 1.0
        assert malthusian_rate(trace(0.1, g)) == 0.0

    @pytest.mark.parametrize("mass", [0.25, 1.0, 4.0])
    def test_exponential_kernel(self, mass):
        # the tilted mass of 2*mass*e^{-2s} is 2*mass / (2 + sigma)
        h = 1e-3
        t = grid(h, 40.0)
        rate = malthusian_rate(trace(h, 2.0 * mass * np.exp(-2.0 * t)))
        assert rate == pytest.approx(2.0 * mass - 2.0, abs=1e-4)


class TestOverflow:
    def test_meansquare_exits_3_without_csv(self, tmp_path, capsys):
        cfg = tmp_path / "c20.json"
        cfg.write_text(json.dumps(problem_doc([[0, -1]], [[0, 20]], 1e-3, 5)))
        out = tmp_path / "out"
        assert cli_main(["meansquare", "--config", str(cfg), "--out", str(out)]) == 3
        assert "at t = 1.745" in capsys.readouterr().err
        assert not (out / "meansq_renewal.csv").exists()

    @pytest.mark.parametrize("command, artifact", [("classify", "report.json"),
                                                   ("meansquare", "meansq_renewal.csv")])
    def test_kernel_overflow_exits_3_naming_its_time(self, tmp_path, capsys, command, artifact):
        # r grows like e^(57.7 t) at h = 0.01, so r^2 and G(r_s)^2 = 9 r^2
        # leave the float range near t = 6.1, long before T
        cfg = tmp_path / "c60.json"
        cfg.write_text(json.dumps(problem_doc([[0, 60]], [[0, 3]], 0.01, 10)))
        out = tmp_path / "out"
        assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 3
        assert "at t = 6.1" in capsys.readouterr().err
        assert not (out / artifact).exists()

    @pytest.mark.parametrize("command, message", [
        ("resolvent", "resolvent r leaves the floating-point range at t = 12.3"),
        ("classify", "squared resolvent r^2 leaves the floating-point range at t = 6.16"),
        ("meansquare", "squared resolvent r^2 leaves the floating-point range at t = 6.16"),
    ])
    def test_resolvent_overflow_before_T_exits_3(self, tmp_path, capsys, command, message):
        # r itself leaves the float range near t = 12.3 < T; r^2 near t = 6.16
        cfg = tmp_path / "c60.json"
        cfg.write_text(json.dumps(problem_doc([[0, 60]], [[0, 3]], 0.01, 20)))
        out = tmp_path / "out"
        assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("phi, time", [(1e150, "10.2"), (1e160, "0;")])
    @pytest.mark.parametrize("command", ["classify", "meansquare"])
    def test_forcing_overflow_exits_3_naming_its_time(self, tmp_path, capsys, command, phi, time):
        # x = phi e^t, so G(x_t)^2 = phi^2 e^(2t) / 4 leaves the float range
        # at t = 10.2 for phi = 1e150 and at once for phi = 1e160
        doc = problem_doc([[0, 1]], [[0, 0.5]], 0.01, 20)
        doc["phi"] = {"constant": phi}
        cfg = tmp_path / "big_phi.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 3
        assert f"forcing G(x_t)^2 leaves the floating-point range at t = {time}" in (
            capsys.readouterr().err
        )
        assert list(out.iterdir()) == []

    def test_resolvent_overflow_is_caught_before_a_small_kernel_overflows(self, tmp_path, capsys):
        # G(r_s)^2 = 1e-6 r^2 would overflow only near t = 6.3
        cfg = tmp_path / "c60.json"
        cfg.write_text(json.dumps(problem_doc([[0, 60]], [[0, 1e-3]], 0.01, 10)))
        assert cli_main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "squared resolvent r^2 leaves the floating-point range at t = 6.16" in (
            capsys.readouterr().err
        )

    def test_large_kernel_overflows_before_the_resolvent(self, tmp_path, capsys):
        # r = e^t stays small, but G(r_s)^2 = 1e300 e^(2s) overflows near t = 9.53
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps(problem_doc([[0, 1]], [[0, 1e150]], 0.01, 20)))
        assert cli_main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "noise kernel G(r_s)^2 leaves the floating-point range at t = 9.5" in (
            capsys.readouterr().err
        )

    def test_small_forcing_untilts_past_the_overflow_of_the_tilt(self):
        # the equation is linear, so scaling f by 1e-300 scales y; e^{sigma t}
        # alone overflows from t ~ 1.8 while y * 1e-300 stays finite
        h = 1e-3
        t = grid(h, 3.0)
        f = np.ones_like(t)
        g = 400.0 * np.exp(-2.0 * t)
        y = solve_renewal(RenewalProblem(trace(h, 1e-300 * f), trace(h, g.copy())))
        assert malthusian_rate(trace(h, g)) * t[-1] > math.log(np.finfo(float).max)
        assert np.all(np.isfinite(y.values))
        n_ok = round(1.5 / h)
        ref = solve_renewal(RenewalProblem(trace(h, f[: n_ok + 1]), trace(h, g[: n_ok + 1])))
        assert max_rel_err(y.values[: n_ok + 1], 1e-300 * ref.values) < 1e-12

    def test_mean_square_overflow_names_time(self):
        # r ~ e^{1.2t}, y = e^{2t}: (r^2 * y)(t) ~ 2.5 e^{2.4t} overflows near t = 295
        h = 0.01
        r = compute_resolvent(SignedMeasure(1.0, atoms=((0.0, 1.2),)), h, 300.0)
        t = grid(h, 300.0)
        y = trace(h, np.exp(2.0 * t))
        with pytest.raises(NumericalError, match=r"second moment .* at t = 29[45]\."):
            mean_square_trace(trace(h, np.ones_like(t)), r, y)

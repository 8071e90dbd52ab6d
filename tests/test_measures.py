import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdde_meansq import (
    GridTrace,
    PhiSpec,
    RenewalProblem,
    SignedMeasure,
    SimulationConfig,
    compute_resolvent,
    deterministic_solution,
    g_of_r_trace,
    simulate_mean_square,
    simulate_single_path,
    variation_of_constants_residual,
)
from sdde_meansq.config import ProblemSpec
from sdde_meansq.errors import ConfigurationError
from sdde_meansq.measures import CompiledFunctional, Segment, segment_nodes, total_variation
from sdde_meansq.montecarlo import PathRecord
from sdde_meansq.quadrature import convolve
from sdde_meansq.renewal import mean_square_trace
from sdde_meansq.resolvent import HistoryTable
from sdde_meansq.stability import limit_constant, solution_functional_trace

E = math.e


def seg(alpha, h, fn):
    u = -alpha + h * np.arange(round(alpha / h) + 1)
    u[-1] = 0.0
    return Segment(alpha, h, fn(u))


def apply(m, s):
    """The measure's functional on the segment, as the solvers evaluate it."""
    return CompiledFunctional(m, s.step).value_vec(s.values, 0)


class TestApplyFunctional:
    def test_point_mass_at_zero(self):
        m = SignedMeasure(1.0, atoms=((0.0, 3.5),))
        s = seg(1.0, 0.1, lambda u: np.ones_like(u))
        assert apply(m, s) == 3.5

    def test_annihilating_pair_on_exponential(self):
        # weights -e at 0 and 1 at -1 cancel exactly on exp(-u)
        m = SignedMeasure(1.0, atoms=((0.0, -E), (-1.0, 1.0)))
        s = seg(1.0, 0.01, lambda u: np.exp(-u))
        assert apply(m, s) == pytest.approx(0.0, abs=1e-14)

    def test_unit_density_against_linear(self):
        # oracle: integral of u over [-1, 0] is -1/2, exact for the trapezoid
        m = SignedMeasure(1.0, density=((-1.0, 1.0), (0.0, 1.0)))
        s = seg(1.0, 0.001, lambda u: u)
        assert apply(m, s) == pytest.approx(-0.5, abs=1e-12)

    def test_off_grid_atom_rejected(self):
        m = SignedMeasure(1.0, atoms=((-0.05, 1.0),))
        s = seg(1.0, 0.1, lambda u: np.ones_like(u))
        with pytest.raises(ConfigurationError) as err:
            apply(m, s)
        assert err.value.code == "ATOM_OFF_GRID"
        assert "-0.05" in str(err.value)

    def test_density_part_second_order(self):
        # integral of e^u * (1+u) over [-1,0]: integrate by parts -> exact 1/e
        m = SignedMeasure(1.0, density=((-1.0, 0.0), (0.0, 1.0)))
        exact = math.exp(-1.0)
        errs = []
        for h in (0.02, 0.01, 0.005):
            s = seg(1.0, h, lambda u: np.exp(u))
            errs.append(abs(apply(m, s) - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


#: alpha and step 1e-9 off in relative terms, far beyond rounding
ALPHA_OFF = 1.0 + 1e-9
STEP_OFF = 0.1 * (1.0 + 1e-9)


def _decay(alpha):
    return SignedMeasure(alpha, atoms=((0.0, -1.0),))


def _ones(alpha, h):
    return Segment(alpha, h, np.ones(round(alpha / h) + 1))


#: every place where two alphas or two steps must coincide; each case is
#: 1e-9 off and reaches its own comparison (alpha 0 lets a segment carry any step)
MISMATCH_SITES = {
    "ProblemSpec": (
        "ALPHA_MISMATCH",
        lambda: ProblemSpec(1.0, _decay(1.0), _decay(ALPHA_OFF), PhiSpec("constant"), 0.1, 1.0),
    ),
    "deterministic_solution alpha": (
        "ALPHA_MISMATCH",
        lambda: deterministic_solution(_decay(1.0), _ones(ALPHA_OFF, ALPHA_OFF / 10), 1.0),
    ),
    "simulate_mean_square alpha": (
        "ALPHA_MISMATCH",
        lambda: simulate_mean_square(
            _decay(1.0), _decay(1.0), _ones(ALPHA_OFF, ALPHA_OFF / 10), SimulationConfig(2), 1.0
        ),
    ),
    "simulate_single_path alpha": (
        "ALPHA_MISMATCH",
        lambda: simulate_single_path(
            _decay(1.0), _decay(1.0), _ones(ALPHA_OFF, ALPHA_OFF / 10), np.zeros(10)
        ),
    ),
    "g_of_r_trace": (
        "ALPHA_MISMATCH",
        lambda: g_of_r_trace(compute_resolvent(_decay(1.0), 0.1, 1.0), _decay(ALPHA_OFF)),
    ),
    "solution_functional_trace": (
        "ALPHA_MISMATCH",
        lambda: solution_functional_trace(
            deterministic_solution(_decay(1.0), _ones(1.0, 0.1), 1.0), _decay(ALPHA_OFF)
        ),
    ),
    "limit_constant": (
        "GRID_MISALIGNED",
        lambda: limit_constant(
            GridTrace(STEP_OFF, np.ones(11)),
            compute_resolvent(_decay(1.0), 0.1, 1.0),
            GridTrace(0.1, np.ones(11)),
            0.0,
        ),
    ),
    "variation_of_constants_residual": (
        "GRID_MISALIGNED",
        lambda: variation_of_constants_residual(
            PathRecord(np.ones(11), np.zeros(10), np.zeros(10)),
            compute_resolvent(_decay(0.0), 0.1, 1.0),
            HistoryTable(0.0, STEP_OFF, np.ones(11)),
        ),
    ),
    "RenewalProblem": (
        "GRID_MISALIGNED",
        lambda: RenewalProblem(GridTrace(0.1, np.ones(11)), GridTrace(STEP_OFF, np.ones(11))),
    ),
    "mean_square_trace": (
        "GRID_MISALIGNED",
        lambda: mean_square_trace(
            GridTrace(0.1, np.ones(11)),
            compute_resolvent(_decay(1.0), 0.1, 1.0),
            GridTrace(STEP_OFF, np.ones(11)),
        ),
    ),
}


@pytest.mark.parametrize("site", sorted(MISMATCH_SITES))
def test_grid_mismatch_rejected_at_every_site(site):
    code, call = MISMATCH_SITES[site]
    with pytest.raises(ConfigurationError) as err:
        call()
    assert err.value.code == code


#: grids on which -alpha + N h rounds above 0, and one on which it does not
LAG_ZERO_GRIDS = [(0.3, 0.1), (0.7, 0.1), (0.6, 0.2), (0.7, 1e-3), (1.0, 0.1)]


class TestSegmentNodes:
    @pytest.mark.parametrize("alpha, h", LAG_ZERO_GRIDS + [(0.7, 1e-4)])
    def test_nodes_start_at_minus_alpha_and_end_at_zero(self, alpha, h):
        u = segment_nodes(alpha, h)
        assert u.size == round(alpha / h) + 1
        assert u[0] == -alpha and u[-1] == 0.0
        assert np.allclose(np.diff(u), h, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("alpha, h", LAG_ZERO_GRIDS)
    def test_unit_density_weighs_the_lag_zero_node(self, alpha, h):
        m = SignedMeasure(alpha, density=((-alpha, 1.0), (0.0, 1.0)))
        fn = CompiledFunctional(m, h)
        assert fn.value_vec(np.ones(fn.n_intervals + 1), 0) == pytest.approx(alpha, rel=1e-12)


class TestTotalVariation:
    def test_atom_weights(self):
        m = SignedMeasure(1.0, atoms=((0.0, -E), (-1.0, 1.0)))
        assert total_variation(m) == pytest.approx(E + 1.0, rel=1e-15)

    def test_zero_measure(self):
        assert total_variation(SignedMeasure(1.0)) == 0.0

    def test_sign_changing_ramp(self):
        # |4u + 2| on [-1, 0]: two triangles of base 1/2 and height 2
        m = SignedMeasure(1.0, density=((-1.0, -2.0), (0.0, 2.0)))
        u = np.linspace(-1.0, 0.0, 200001)
        f = np.abs(4.0 * u + 2.0)
        # the trapezoid rule written out: np.trapezoid needs numpy >= 2.0
        oracle = 0.5 * np.sum((f[1:] + f[:-1]) * np.diff(u))
        assert oracle == pytest.approx(1.0, abs=1e-9)
        assert total_variation(m) == pytest.approx(oracle, abs=1e-9)

    def test_zero_iff_zero_measure(self):
        assert total_variation(SignedMeasure(2.0, density=((-1.0, 0.0), (0.0, 0.0)))) == 0.0
        assert total_variation(SignedMeasure(2.0, atoms=((-1.0, 1e-300),))) > 0.0


class TestTrace:
    def test_atom_products_match_the_allocating_form(self):
        # the reused product buffer keeps every bit, -0.0 products included
        h = 0.1
        m = SignedMeasure(1.0, atoms=((0.0, -1.5), (-0.3, 0.0), (-1.0, 2.0 / 3.0)),
                          density=((-0.6, 0.5), (-0.2, -1.0)))
        F = CompiledFunctional(m, h)
        rng = np.random.default_rng(5)
        padded = rng.standard_normal(400) * 10.0 ** rng.integers(-300, 300, 400)
        padded[::7] = 0.0
        padded[3::11] = -0.0
        ref = np.zeros(padded.size - F.n_intervals)
        for off, w in F.atom_at.items():
            ref += w * padded[off : off + ref.size]
        ref += convolve(F.dens_weights[::-1], padded, padded.size)[F.n_intervals :]
        assert np.array_equal(F.trace(padded).view(np.int64), ref.view(np.int64))
        atoms = CompiledFunctional(SignedMeasure(1.0, atoms=((0.0, -1.0),)), h)
        assert np.signbit(atoms.trace(np.zeros(20))).sum() == 0

    def test_density_part_matches_direct_correlation(self):
        # a growing trace: the block convolution stays relative to its window
        h = 1e-3
        m = SignedMeasure(1.0, atoms=((-0.3, 0.4),),
                          density=((-1.0, 0.5), (-0.4, -1.0), (0.0, 0.25)))
        F = CompiledFunctional(m, h)
        padded = np.exp(3.0 * h * np.arange(20001)) * np.cos(7.0 * h * np.arange(20001))
        out = F.trace(padded)
        ref = np.correlate(padded, F.dens_weights, mode="valid")
        for off, w in F.atom_at.items():
            ref += w * padded[off : off + ref.size]
        scale = np.exp(3.0 * h * np.arange(ref.size) + 3.0)  # max |padded| on each segment
        assert np.abs(out - ref).max() <= 1e-13 * scale.max()
        assert np.all(np.abs(out - ref) <= 1e-12 * scale)


    def test_a_segment_gives_the_value_of_its_column(self):
        # one evaluator for a 1-d segment and a (time, paths) array
        m = SignedMeasure(1.0, atoms=((0.0, -1.5), (-0.3, 0.25)),
                          density=((-0.9, 0.5), (-0.2, -1.0), (0.0, 0.3)))
        rng = np.random.default_rng(11)
        for h in (0.1, 1e-3):
            F = CompiledFunctional(m, h)
            x = rng.standard_normal(F.n_intervals + 40)
            for n in (0, 17, 39):
                one = F.value_vec(x, n)
                assert one.shape == ()
                assert np.array_equal(one[None], F.value_vec(x[:, None], n))


class TestInvariants:
    @given(
        st.lists(
            st.tuples(st.integers(0, 10), st.floats(-5, 5)),
            min_size=1,
            max_size=4,
            unique_by=lambda t: t[0],
        ),
        st.floats(-3, 3),
        st.floats(-3, 3),
    )
    def test_linearity_atom_measures(self, atom_spec, a, b):
        h = 0.1
        atoms = tuple((-idx * h, w) for idx, w in atom_spec)
        m = SignedMeasure(1.0, atoms=atoms)
        rng = np.random.default_rng(42)
        v1 = rng.normal(size=11)
        v2 = rng.normal(size=11)
        s1 = Segment(1.0, h, v1)
        s2 = Segment(1.0, h, v2)
        combo = Segment(1.0, h, a * v1 + b * v2)
        lhs = apply(m, combo)
        rhs = a * apply(m, s1) + b * apply(m, s2)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(st.floats(-4, 4), st.floats(-4, 4), st.floats(-4, 4))
    def test_measure_additivity(self, w1, w2, dv):
        m1 = SignedMeasure(1.0, atoms=((0.0, w1),), density=((-1.0, dv), (0.0, 0.5)))
        m2 = SignedMeasure(1.0, atoms=((0.0, w2), (-0.5, 1.0)))
        total = SignedMeasure(1.0, atoms=((0.0, w1 + w2), (-0.5, 1.0)), density=m1.density)
        s = seg(1.0, 0.05, lambda u: np.cos(3 * u))
        lhs = apply(total, s)
        rhs = apply(m1, s) + apply(m2, s)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(st.lists(st.floats(-2, 2), min_size=11, max_size=11))
    def test_bound_by_total_variation(self, values):
        m = SignedMeasure(1.0, atoms=((0.0, 1.5), (-0.5, -0.75)))
        s = Segment(1.0, 0.1, np.array(values))
        bound = total_variation(m) * np.abs(s.values).max()
        assert abs(apply(m, s)) <= bound + 1e-12


class TestValidation:
    def test_atom_outside_interval(self):
        with pytest.raises(ConfigurationError):
            SignedMeasure(1.0, atoms=((-1.5, 1.0),))

    def test_duplicate_atoms(self):
        with pytest.raises(ConfigurationError):
            SignedMeasure(1.0, atoms=((0.0, 1.0), (0.0, 2.0)))

    def test_unsorted_density_knots(self):
        with pytest.raises(ConfigurationError):
            SignedMeasure(1.0, density=((0.0, 1.0), (-1.0, 1.0)))

    def test_one_density_knot(self):
        with pytest.raises(ConfigurationError) as err:
            SignedMeasure(1.0, density=((-0.5, 2.0),))
        assert err.value.code == "BAD_VALUE" and err.value.field is None
        assert str(err.value) == "a density needs at least two knots"

    def test_zero_measure_is_valid(self):
        m = SignedMeasure(0.0)
        assert m.atoms == () and m.density == ()

    def test_segment_wrong_length(self):
        with pytest.raises(ConfigurationError) as err:
            Segment(1.0, 0.1, np.ones(5))
        assert err.value.code == "PHI_SAMPLES_MISMATCH"

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_segment_values_must_be_finite(self, bad):
        values = np.ones(11)
        values[3] = bad
        with pytest.raises(ConfigurationError) as err:
            Segment(1.0, 0.1, values)
        assert err.value.code == "BAD_VALUE" and err.value.field is None

    def test_sampled_overflow_is_an_error_without_a_warning(self):
        # e^800 overflows, and 0 * inf is NaN
        with pytest.raises(ConfigurationError) as err:
            Segment.sample(1.0, 0.1, lambda u: 0.0 * np.exp(-800.0 * u))
        assert err.value.code == "BAD_VALUE"

    def test_segment_step_must_divide(self):
        with pytest.raises(ConfigurationError) as err:
            Segment(1.0, 0.0007, np.ones(1430))
        assert err.value.code == "GRID_MISALIGNED"

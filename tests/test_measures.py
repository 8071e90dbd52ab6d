import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdde_meansq import (
    AtomAlignmentError,
    ConfigurationError,
    GridTrace,
    PhiSpec,
    ProblemSpec,
    RenewalProblem,
    Segment,
    SignedMeasure,
    SimulationConfig,
    apply_functional,
    compute_resolvent,
    deterministic_solution,
    g_of_r_trace,
    mean_square_trace,
    simulate_mean_square,
    solution_functional_trace,
    total_variation,
)
from sdde_meansq.measures import CompiledFunctional

E = math.e


def seg(alpha, h, fn):
    u = -alpha + h * np.arange(round(alpha / h) + 1)
    u[-1] = 0.0
    return Segment(alpha, h, fn(u))


class TestApplyFunctional:
    def test_point_mass_at_zero(self):
        m = SignedMeasure(1.0, atoms=((0.0, 3.5),))
        s = seg(1.0, 0.1, lambda u: np.ones_like(u))
        assert apply_functional(m, s) == 3.5

    def test_annihilating_pair_on_exponential(self):
        # weights -e at 0 and 1 at -1 cancel exactly on exp(-u)
        m = SignedMeasure(1.0, atoms=((0.0, -E), (-1.0, 1.0)))
        s = seg(1.0, 0.01, lambda u: np.exp(-u))
        assert apply_functional(m, s) == pytest.approx(0.0, abs=1e-14)

    def test_unit_density_against_linear(self):
        # oracle: integral of u over [-1, 0] is -1/2, exact for the trapezoid
        m = SignedMeasure(1.0, density=((-1.0, 1.0), (0.0, 1.0)))
        s = seg(1.0, 0.001, lambda u: u)
        assert apply_functional(m, s) == pytest.approx(-0.5, abs=1e-12)

    def test_alpha_mismatch_rejected(self):
        m = SignedMeasure(1.0, atoms=((0.0, 1.0),))
        s = seg(2.0, 0.1, lambda u: np.ones_like(u))
        with pytest.raises(ConfigurationError) as err:
            apply_functional(m, s)
        assert err.value.code == "ALPHA_MISMATCH"

    def test_off_grid_atom_rejected(self):
        m = SignedMeasure(1.0, atoms=((-0.05, 1.0),))
        s = seg(1.0, 0.1, lambda u: np.ones_like(u))
        with pytest.raises(AtomAlignmentError) as err:
            apply_functional(m, s)
        assert "-0.05" in str(err.value)

    def test_density_part_second_order(self):
        # integral of e^u * (1+u) over [-1,0]: integrate by parts -> exact 1/e
        m = SignedMeasure(1.0, density=((-1.0, 0.0), (0.0, 1.0)))
        exact = math.exp(-1.0)
        errs = []
        for h in (0.02, 0.01, 0.005):
            s = seg(1.0, h, lambda u: np.exp(u))
            errs.append(abs(apply_functional(m, s) - exact))
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
    "apply_functional": (
        "ALPHA_MISMATCH", lambda: apply_functional(_decay(1.0), _ones(ALPHA_OFF, ALPHA_OFF / 10))
    ),
    "SignedMeasure.__add__": ("ALPHA_MISMATCH", lambda: _decay(1.0) + _decay(ALPHA_OFF)),
    "ProblemSpec": (
        "ALPHA_MISMATCH",
        lambda: ProblemSpec(1.0, _decay(1.0), _decay(ALPHA_OFF), PhiSpec("constant"), 0.1, 1.0),
    ),
    "deterministic_solution alpha": (
        "ALPHA_MISMATCH",
        lambda: deterministic_solution(_decay(1.0), _ones(ALPHA_OFF, ALPHA_OFF / 10), 0.1, 1.0),
    ),
    "g_of_r_trace": (
        "ALPHA_MISMATCH",
        lambda: g_of_r_trace(compute_resolvent(_decay(1.0), 0.1, 1.0), _decay(ALPHA_OFF)),
    ),
    "solution_functional_trace": (
        "ALPHA_MISMATCH",
        lambda: solution_functional_trace(
            deterministic_solution(_decay(1.0), _ones(1.0, 0.1), 0.1, 1.0), _decay(ALPHA_OFF)
        ),
    ),
    "deterministic_solution step": (
        "GRID_MISALIGNED",
        lambda: deterministic_solution(_decay(0.0), _ones(0.0, STEP_OFF), 0.1, 1.0),
    ),
    "simulate_mean_square": (
        "GRID_MISALIGNED",
        lambda: simulate_mean_square(
            _decay(0.0), _decay(0.0), _ones(0.0, STEP_OFF), SimulationConfig(0.1, 1.0, 2)
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
        oracle = np.trapezoid(np.abs(4.0 * u + 2.0), u)
        assert oracle == pytest.approx(1.0, abs=1e-9)
        assert total_variation(m) == pytest.approx(oracle, abs=1e-9)

    def test_zero_iff_zero_measure(self):
        assert total_variation(SignedMeasure(2.0, density=((-1.0, 0.0), (0.0, 0.0)))) == 0.0
        assert total_variation(SignedMeasure(2.0, atoms=((-1.0, 1e-300),))) > 0.0


class TestTrace:
    def test_density_part_matches_direct_correlation(self):
        # a growing trace: the block convolution stays relative to its window
        h = 1e-3
        m = SignedMeasure(1.0, atoms=((-0.3, 0.4),),
                          density=((-1.0, 0.5), (-0.4, -1.0), (0.0, 0.25)))
        F = CompiledFunctional(m, h)
        padded = np.exp(3.0 * h * np.arange(20001)) * np.cos(7.0 * h * np.arange(20001))
        out = F.trace(padded)
        ref = np.correlate(padded, F.dens_weights, mode="valid")
        for off, w in F.atom_items:
            ref += w * padded[off : off + ref.size]
        scale = np.exp(3.0 * h * np.arange(ref.size) + 3.0)  # max |padded| on each segment
        assert np.abs(out - ref).max() <= 1e-13 * scale.max()
        assert np.all(np.abs(out - ref) <= 1e-12 * scale)


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
        lhs = apply_functional(m, combo)
        rhs = a * apply_functional(m, s1) + b * apply_functional(m, s2)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(st.floats(-4, 4), st.floats(-4, 4), st.floats(-4, 4))
    def test_measure_additivity(self, w1, w2, dv):
        m1 = SignedMeasure(1.0, atoms=((0.0, w1),), density=((-1.0, dv), (0.0, 0.5)))
        m2 = SignedMeasure(1.0, atoms=((0.0, w2), (-0.5, 1.0)))
        s = seg(1.0, 0.05, lambda u: np.cos(3 * u))
        lhs = apply_functional(m1 + m2, s)
        rhs = apply_functional(m1, s) + apply_functional(m2, s)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(st.lists(st.floats(-2, 2), min_size=11, max_size=11))
    def test_bound_by_total_variation(self, values):
        m = SignedMeasure(1.0, atoms=((0.0, 1.5), (-0.5, -0.75)))
        s = Segment(1.0, 0.1, np.array(values))
        bound = total_variation(m) * np.abs(s.values).max()
        assert abs(apply_functional(m, s)) <= bound + 1e-12


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

    def test_zero_measure_is_valid(self):
        m = SignedMeasure(0.0)
        assert m.is_zero

    def test_segment_wrong_length(self):
        with pytest.raises(ConfigurationError):
            Segment(1.0, 0.1, np.ones(5))

    def test_segment_step_must_divide(self):
        with pytest.raises(ConfigurationError) as err:
            Segment(1.0, 0.0007, np.ones(1430))
        assert err.value.code == "GRID_MISALIGNED"

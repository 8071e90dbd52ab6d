import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdde_meansq.quadrature import _BASE, _FFT_BLOCK, convolve, solve_causal, times_exp

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def reference_causal(a, y, start):
    """O(n * reach) loop, the reference for the block solver."""
    y = y.copy()
    for m in range(start, y.size):
        k = np.arange(1, min(a.size, m + 1))
        y[m] += float(np.dot(a[k], y[m - k]))
    return y


#: grid sizes on both sides of the solver block and of the FFT block sizes
SIZES = (1, 2, _BASE - 1, _BASE, _BASE + 1, 3 * _BASE + 5, _FFT_BLOCK // 2 + 1,
         _FFT_BLOCK - 1, _FFT_BLOCK + 1, 2 * _FFT_BLOCK + 3)


class TestSolveCausal:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(SIZES),
        st.sampled_from((1, 2, 127, 128, 129, 1001, None)),
        st.sampled_from(("none", "one", "reach")),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_matches_direct_loop(self, n, reach, prefix, seed, signed):
        # reach None means every earlier point, as in the renewal solve
        rng = np.random.default_rng(seed)
        reach = n if reach is None else reach
        start = {"none": 0, "one": 1, "reach": reach}[prefix]
        if start > n:
            return
        a = rng.random(reach + 1)
        if signed:
            a -= 0.5
        a *= 0.95 / np.abs(a[1:]).sum()  # keeps the solution bounded
        a[0] = rng.random()  # never read
        y = rng.standard_normal(n) if signed else rng.random(n)
        ref = reference_causal(a, y, start)
        out = solve_causal(a, y.copy(), start)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_prefix_is_left_alone(self):
        y = np.arange(10.0)
        out = solve_causal(np.array([0.0, 0.5, 0.25]), y.copy(), 4)
        assert np.array_equal(out[:4], y[:4])

    def test_scalar_chain_is_a_power(self):
        q = 1.0 - 1e-3 + 0.5e-6
        y = np.zeros(5 * _BASE + 3)
        y[0] = 1.0
        solve_causal(np.array([0.0, q]), y, 1)
        assert np.abs(y / q ** np.arange(y.size) - 1.0).max() < 1e-13


class TestConvolve:
    @pytest.mark.parametrize("na, nb, n_out", [(1, 1, 1), (3, 5000, 5000), (5000, 7, 4000),
                                               (4097, 4097, 8193)])
    def test_matches_numpy(self, na, nb, n_out):
        rng = np.random.default_rng(na + nb)
        a, b = rng.random(na), rng.random(nb)
        ref = np.convolve(a, b)[:n_out]
        assert np.abs(convolve(a, b, n_out) - ref).max() <= 1e-13 * ref.max()


class TestTimesExp:
    def test_zero_stays_zero_past_the_float_range(self):
        e = np.array([0.0, 800.0, -800.0])
        assert np.array_equal(times_exp(np.zeros(3), e), np.zeros(3))

    def test_exact_where_only_the_factor_leaves_the_range(self):
        out = times_exp(np.array([1e-300, 1e300]), np.array([700.0, -1400.0]))
        assert out == pytest.approx([1e-300 * np.exp(700.0), np.exp(np.log(1e300) - 1400.0)])

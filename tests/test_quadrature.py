import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdde_meansq.measures import CompiledFunctional, SignedMeasure
from sdde_meansq.quadrature import (
    _BASE, _DIRECT, _FFT_BLOCK, _TAIL, _block_response, convolve, solve_causal, times_exp,
)
from sdde_meansq.resolvent import _heun_recurrence

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def reference_causal(a, y, start):
    """O(n * reach) loop, the reference for the block solver."""
    y = y.copy()
    for m in range(start, y.size):
        k = np.arange(1, min(a.size, m + 1))
        y[m] += float(np.dot(a[k], y[m - k]))
    return y


def reference_response(a):
    """The block's impulse response entry by entry, as solve_causal once built it."""
    e = np.zeros(_BASE)
    e[0] = 1.0
    for i in range(1, _BASE):
        taps = a[1 : i + 1]
        e[i] = taps @ e[i - 1 :: -1][: taps.size]
    return e


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

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from((_BASE - 1, _TAIL - 1, _TAIL, _TAIL + 1, 3 * _TAIL + 5)),
        st.sampled_from((1, 2, _DIRECT - 1, _DIRECT, _DIRECT + 1)),
        st.sampled_from(("feed", "boundary", "mid-block")),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_forcing_that_stops_matches_direct_loop(self, n, reach, stop, seed, signed):
        # past the last input a reach of at most _DIRECT is solved as a
        # homogeneous tail; "feed" leaves only what the prefix feeds forward
        rng = np.random.default_rng(seed)
        a = rng.random(reach + 1)
        if signed:
            a -= 0.5
        a *= 0.95 / np.abs(a[1:]).sum()
        a[0] = rng.random()  # never read
        y = rng.standard_normal(n) if signed else rng.random(n)
        start = min(reach, n)
        offset = {"feed": 0, "boundary": 2 * _BASE, "mid-block": 2 * _BASE + 37}[stop]
        y[start + offset :] = 0.0
        ref = reference_causal(a, y, start)
        out = solve_causal(a, y.copy(), start)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("b, prefix", [(100.0, 1e-200), (-100.0, 1e300)])
    def test_tail_keeps_every_normal_value(self, b, prefix):
        # the chain grows or decays by e^(+-0.1) per step, so its impulse
        # response alone leaves the float range within 8192 steps while the
        # solution, scaled by the prefix, stays normal up to T = 10
        h, N = 1e-3, 1000
        a = _heun_recurrence(CompiledFunctional(SignedMeasure(1.0, atoms=((0.0, b),)), h))[0]
        y = np.zeros(N + round(10.0 / h) + 1)
        y[: N + 1] = prefix
        ref = reference_causal(a, y, N + 1)
        out = solve_causal(a, y.copy(), N + 1)
        normal = np.abs(ref) >= np.finfo(float).tiny
        assert normal.all()
        assert np.abs(out / ref - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("b", [-100.0, -1.0, 0.0, 1.0, 100.0])
    @pytest.mark.parametrize("h", [1e-4, 1e-3, 1e-2])
    def test_one_tap_response_is_the_loop_bit_for_bit(self, b, h):
        a = _heun_recurrence(CompiledFunctional(SignedMeasure(1.0, atoms=((0.0, b),)), h))[0]
        assert a.size == 2
        assert np.array_equal(_block_response(a), reference_response(a))

    # every reach past one tap, on both sides of _DIRECT and of _BASE, up to
    # the renewal kernel of the 40001-point workload
    @pytest.mark.parametrize("reach", [2, 3, 17, _DIRECT - 1, _DIRECT, _DIRECT + 1, 101, 1001,
                                       40000])
    @pytest.mark.parametrize("signed", [False, True])
    def test_short_response_matches_the_loop(self, reach, signed):
        rng = np.random.default_rng(reach)
        for _ in range(50):
            a = rng.random(reach + 1)
            if signed:
                a -= 0.5
            a *= 0.95 / np.abs(a[1:]).sum()
            ref = reference_response(a)
            assert np.abs(_block_response(a) - ref).max() <= 1e-15 * np.abs(ref).max()

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

    def test_two_tap_chain_makes_no_fft_call(self, monkeypatch):
        # a lag-0 drift gives Heun two taps; 189001 points is h = 1e-4 at T = 18.9
        calls = []
        for name in ("rfft", "irfft"):
            original = getattr(np.fft, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        q = 1.0 - 1e-4 + 0.5e-8
        y = np.zeros(189_001)
        y[0] = 1.0
        solve_causal(np.array([0.0, q]), y, 1)
        assert not calls
        exact = q ** np.arange(y.size)
        assert np.abs(y / exact - 1.0).max() < 1e-12


class TestConvolve:
    @pytest.mark.parametrize("na, nb, n_out", [
        (1, 1, 1), (3, 5000, 5000), (5000, 7, 4000), (4097, 4097, 8193),
        # both sides of the method choice: one short input, then the product bound
        (_DIRECT, 40_000, 40_063), (_DIRECT + 1, 40_000, 40_064),
        (512, 512, 1023), (513, 512, 1024), (1024, 2048, 3071),
        # n_out past the full length, direct and FFT
        (3, 4, 12), (700, 800, 1505),
    ])
    def test_matches_numpy(self, na, nb, n_out):
        rng = np.random.default_rng(na + nb)
        a, b = rng.random(na), rng.random(nb)
        full = np.convolve(a, b)
        ref = np.concatenate((full, np.zeros(max(0, n_out - full.size))))[:n_out]
        assert np.abs(convolve(a, b, n_out) - ref).max() <= 1e-13 * ref.max()

    @pytest.mark.parametrize("na, nb", [(0, 5), (5, 0), (0, 0), (0, 5000)])
    def test_empty_input_gives_zeros(self, na, nb):
        out = convolve(np.ones(na), np.ones(nb), 7)
        assert np.array_equal(out, np.zeros(7))

    @pytest.mark.parametrize("na, nb", [(2, 10), (700, 800)])
    def test_out_of_range_inputs_raise_no_warning(self, na, nb):
        a, b = np.full(na, 1e300), np.full(nb, 1e300)
        a[1] = np.inf
        out = convolve(a, b, na + nb - 1)
        assert not np.isfinite(out).any()
        assert np.isfinite(convolve(np.full(na, 1e300), np.full(nb, 1e-300), 9)).all()


class TestTimesExp:
    def test_zero_stays_zero_past_the_float_range(self):
        e = np.array([0.0, 800.0, -800.0])
        assert np.array_equal(times_exp(np.zeros(3), e), np.zeros(3))

    def test_exact_where_only_the_factor_leaves_the_range(self):
        out = times_exp(np.array([1e-300, 1e300]), np.array([700.0, -1400.0]))
        assert out == pytest.approx([1e-300 * np.exp(700.0), np.exp(np.log(1e300) - 1400.0)])

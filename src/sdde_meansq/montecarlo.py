"""Euler-Maruyama simulation of the stochastic delay equation.

Paths evolve as X(n+1) = X(n) + F(X_seg) h + G(X_seg) dW with history
segments read off the path's own grid (the step divides the delay horizon,
so no interpolation happens).  Every path owns a counter-based substream
keyed by (master seed, path index); normal increments come from the inverse
normal CDF applied to 53-bit counter draws.  Work is split into fixed-size
path chunks whose partial sums are combined in chunk order, so estimates
are bit-identical no matter how many workers run.

The second moment is estimated by importance sampling with a constant-drift
Girsanov tilt: the chain is driven by dW = dW~ + lambda h with dW~ the
sampled N(0, h) increments, and each path is weighted by the likelihood
ratio w(t_n) = exp(-lambda W~(t_n) - lambda^2 t_n / 2) of those discrete
Gaussian increments, so the mean of w X^2 is unbiased for the
Euler-Maruyama chain.  lambda = 2 nu({0}) makes w X^2 deterministic for
geometric Brownian motion in continuous time, so the standard error of the
lognormal tail no longer lies; lambda = 0 is the plain mean of X^2, bit for
bit.  The tilted chain may grow far faster than sqrt(w) X: the equation is
linear, so a path that passes 2**512 has the history it still reads scaled
down by that power of two, and the weight undoes it.  A path is reported
diverged when sqrt(w) |X| passes 1e150 or the chain leaves the float range.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, BAD_VALUE, GRID_MISALIGNED
from .measures import CompiledFunctional, Segment, SignedMeasure
from .quadrature import convolve, exact_divisions, require_match
from .resolvent import (
    ResolventTable,
    SolutionTable,
    compute_resolvent,
    deterministic_solution,
)

#: paths per work unit; fixed so reductions are scheduling-independent
CHUNK = 2048
#: a path whose weighted magnitude sqrt(w) |X| passes this is reported as diverged
DIVERGE_LIMIT = 1e150
#: a chain value past 2**RESCALE_BITS scales the path's live history down by
#: as much; looked for every RESCALE_STRIDE steps, which a path could only
#: outrun by growing 2**64-fold per step
RESCALE_BITS = 512
RESCALE_STRIDE = 8
#: paths whose counter draws are gathered at once before the transpose
RNG_BLOCK = 64

_U64 = (1 << 64) - 1


@dataclass(frozen=True)
class SimulationConfig:
    """Monte Carlo run parameters; results depend only on these and the problem."""

    step: float
    horizon: float
    path_count: int
    master_seed: int = 0
    worker_count: int = 1

    def __post_init__(self):
        if self.step <= 0.0 or self.horizon <= 0.0:
            raise ConfigurationError(BAD_VALUE, "step and horizon must be positive")
        if self.path_count < 2:
            raise ConfigurationError(BAD_VALUE, "need at least 2 paths")


@dataclass(eq=False)
class MomentEstimate:
    """Second-moment estimate with per-time standard errors.

    ``mean_sq`` is the path mean of w X^2 and ``stderr`` the standard error
    from the sample variance of w X^2, w being the likelihood ratio of the
    drift ``tilt`` (w = 1 when ``tilt`` is 0).  ``max_path_share`` is the
    largest share one path has of the sum of w X^2 at any time: near 1 the
    estimate rests on a single path and its standard error is no bound.
    It is a diagnostic and gates nothing.
    """

    step: float
    mean_sq: np.ndarray
    stderr: np.ndarray
    path_count: int
    master_seed: int
    diverged_paths: int
    tilt: float
    max_path_share: float

    @property
    def valid(self) -> bool:
        return self.diverged_paths == 0

    def times(self) -> np.ndarray:
        return self.step * np.arange(self.mean_sq.size)


@dataclass(eq=False)
class PathRecord:
    """One simulated path with the data needed to replay its integrals."""

    values: np.ndarray
    increments: np.ndarray
    noise_values: np.ndarray


def _path_key(master_seed: int, path_index: int) -> int:
    return ((master_seed & _U64) << 64) | (path_index & _U64)


def _normal_increments(
    master_seed: int, lo: int, hi: int, n_steps: int, h: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Increments for paths [lo, hi) as an (n_steps, paths) array, written into ``out`` if given.

    The counter draws are gathered a block of paths at a time and turned
    into increments in place, so nothing beside ``out`` grows with the chunk.
    """
    # imported here: scipy.special is most of the package's import time
    from scipy.special import ndtri

    if out is None:
        out = np.empty((n_steps, hi - lo))
    block = np.empty((min(RNG_BLOCK, hi - lo), n_steps))
    for b in range(lo, hi, RNG_BLOCK):
        e = min(b + RNG_BLOCK, hi)
        for i in range(b, e):
            bits = np.random.Philox(key=_path_key(master_seed, i))
            gen = np.random.Generator(bits)
            block[i - b] = gen.integers(0, 1 << 53, size=n_steps, dtype=np.int64)
        out[:, b - lo : e - lo] = block[: e - b].T
    out += 0.5
    out *= 2.0**-53
    ndtri(out, out=out)
    out *= math.sqrt(h)
    return out


class _WindowSums:
    """A functional on every path of a (time, paths) array, one step after another.

    The segment of step n is ``paths[n : n + N + 1]``.  Point items read one
    row each.  Each density run keeps the sliding trapezoid moments
    S0 = sum_k x[n + j0 + k] and S1 = sum_k k x[n + j0 + k] over its L + 1
    rows and contributes c0 S0 + c1 S1, so a step costs O(#runs) row
    operations instead of O(N).  The moments are summed afresh from the
    window every N steps, which bounds their rounding drift.  Every
    operation is elementwise over paths, so a path's values do not depend
    on which other paths share the array.
    """

    def __init__(self, fn: CompiledFunctional, paths: np.ndarray):
        self.paths = paths
        self.points = fn.point_items
        self.n_intervals = fn.n_intervals
        m = paths.shape[1]
        self.runs = [(j0, L, c0, c1, np.empty(m), np.empty(m)) for j0, L, c0, c1 in fn.runs]
        self.anchor(0)

    def anchor(self, n: int) -> None:
        """Sum the moments of step n directly from the window."""
        for j0, L, _, _, s0, s1 in self.runs:
            # suffix sums: S1 = sum over k >= 1 of sum_{i >= k} x[i]
            s0[:] = self.paths[n + j0 + L]
            s1[:] = 0.0
            for k in range(n + j0 + L - 1, n + j0 - 1, -1):
                s1 += s0
                s0 += self.paths[k]

    def value(self, n: int) -> np.ndarray:
        """The functional at step n, once the moments are those of step n."""
        acc = np.zeros(self.paths.shape[1])
        for off, w in self.points:
            acc += w * self.paths[n + off]
        for _, _, c0, c1, s0, s1 in self.runs:
            acc += c0 * s0
            acc += c1 * s1
        return acc

    def advance(self, n: int) -> None:
        """Move the moments from step n to step n + 1; row n + N + 1 must be written."""
        if self.runs and (n + 1) % self.n_intervals == 0:
            self.anchor(n + 1)
            return
        for j0, L, _, _, s0, s1 in self.runs:
            new = self.paths[n + j0 + L + 1]
            s0 += new
            s0 -= self.paths[n + j0]
            s1 += (L + 1.0) * new
            s1 -= s0

    def scale(self, idx: np.ndarray, factor: float) -> None:
        """Follow a power-of-two rescale of the window rows of paths ``idx``."""
        for _, _, _, _, s0, s1 in self.runs:
            s0[idx] *= factor
            s1[idx] *= factor


def _worker_count(hint: int) -> int:
    env = os.environ.get("SDDE_MEANSQ_THREADS")
    workers = max(1, hint)
    if env:
        try:
            workers = min(workers, max(1, int(env)))
        except ValueError:
            pass
    return workers


def _euler_maruyama(f_mu, g_nu, paths, dw, h):
    """Step a (time, paths) array in place, one row per increment row of ``dw``.

    Returns the rescales (n, idx): step n scaled paths ``idx`` by
    2**-RESCALE_BITS from row n + 1 on, which is exact as the chain is linear.
    """
    n_hist = paths.shape[0] - dw.shape[0] - 1
    rescaled = []
    drift, noise = _WindowSums(f_mu, paths), _WindowSums(g_nu, paths)
    for n in range(dw.shape[0]):
        row = paths[n_hist + n] + h * drift.value(n) + noise.value(n) * dw[n]
        paths[n_hist + n + 1] = row
        drift.advance(n)
        noise.advance(n)
        if n % RESCALE_STRIDE:
            continue
        over = np.abs(row) > 2.0**RESCALE_BITS
        if over.any():
            idx = np.flatnonzero(over & np.isfinite(row))
            paths[n + 1 : n_hist + n + 2, idx] *= 2.0**-RESCALE_BITS
            drift.scale(idx, 2.0**-RESCALE_BITS)
            noise.scale(idx, 2.0**-RESCALE_BITS)
            rescaled.append((n, idx))
    return rescaled


def _simulate_chunk(f_mu, g_nu, phi_values, n_steps, h, master_seed, lo, hi, tilt):
    n_hist = phi_values.size - 1
    # the paths and their increments share one allocation: one block that
    # large is mapped on its own and handed back to the system when freed,
    # so the chunks' peak memory does not depend on how workers interleave
    buf = np.empty((n_hist + 2 * n_steps + 1, hi - lo))
    paths, dw = buf[: n_hist + n_steps + 1], buf[n_hist + n_steps + 1 :]
    _normal_increments(master_seed, lo, hi, n_steps, h, out=dw)
    paths[: n_hist + 1] = phi_values[:, None]
    dw += tilt * h
    with np.errstate(over="ignore", invalid="ignore"):
        rescaled = _euler_maruyama(f_mu, g_nu, paths, dw, h)
        # row by row: np.cumsum(axis=0) walks the columns, several times slower
        for n in range(1, n_steps):
            dw[n] += dw[n - 1]
        body = paths[n_hist:]
        # dw now holds the driving path W = W~ + tilt t at t_1 .. t_n; the
        # log weight is -tilt W~ - tilt^2 t / 2 = tilt^2 t / 2 - tilt W.
        # body becomes sqrt(w) X with the rescales undone, applied as two
        # quarter factors so that one under- or overflows only where
        # sqrt(w) X itself does
        dw *= -0.25 * tilt
        dw += (0.125 * tilt * tilt * h * np.arange(1, n_steps + 1))[:, None]
        for n, idx in rescaled:
            # a rescale at step n covers body rows n + 1 - n_hist onwards
            dw[max(n - n_hist, 0) :, idx] += 0.5 * RESCALE_BITS * math.log(2.0)
            if n < n_hist:
                body[0, idx] *= 2.0**RESCALE_BITS
        np.exp(dw, out=dw)
        body[1:] *= dw
        body[1:] *= dw
        # the rest works in place on the paths' memory; NaN fails the
        # comparison, so a chain that left the float range counts as diverged
        np.abs(body, out=body)
        bad = ~(body <= DIVERGE_LIMIT).all(axis=0)
        sq = np.square(body, out=body)
        sum_sq = sq.sum(axis=1)
        # fourth powers are summed at the power-of-two scale 2**-scale of the
        # chunk's sum, which is exact and keeps them in range
        scale = np.frexp(sum_sq)[1]
        np.ldexp(sq, -scale[:, None], out=sq)
        max_sq = sq.max(axis=1)
        sum_q4 = np.square(sq, out=sq).sum(axis=1)
    return sum_sq, sum_q4, scale, int(np.count_nonzero(bad)), max_sq


def simulate_mean_square(
    mu: SignedMeasure, nu: SignedMeasure, phi: Segment, cfg: SimulationConfig
) -> MomentEstimate:
    """Estimate E|X(t)|^2 on the grid by averaging weighted squared paths.

    The paths are tilted by the drift lambda = 2 nu({0}), twice the noise
    measure's atom at lag 0, and each X^2 is weighted by its likelihood
    ratio (see the module docstring); the standard error comes from the
    sample variance of the weighted squares.  With no atom at lag 0 the
    tilt is 0 and the estimate is the plain mean of X^2.

    Deterministic given (problem, cfg.master_seed): worker count and the
    SDDE_MEANSQ_THREADS cap only change scheduling, never the estimate.
    Diverged paths, judged on sqrt(w) |X|, poison the estimate visibly
    (NaN/inf) and are counted.
    """
    require_match(phi.step, cfg.step, GRID_MISALIGNED, "initial segment step != config step")
    n_steps = exact_divisions(cfg.horizon, cfg.step, "horizon")
    f_mu = CompiledFunctional(mu, cfg.step)
    g_nu = CompiledFunctional(nu, cfg.step)
    tilt = 2.0 * g_nu.atom_at.get(g_nu.n_intervals, 0.0)
    m_total = cfg.path_count
    bounds = [(lo, min(lo + CHUNK, m_total)) for lo in range(0, m_total, CHUNK)]

    def job(b):
        return _simulate_chunk(
            f_mu, g_nu, phi.values, n_steps, cfg.step, cfg.master_seed, b[0], b[1], tilt
        )

    workers = min(_worker_count(cfg.worker_count), len(bounds))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(job, bounds))

    total_sq = np.zeros(n_steps + 1)
    total_q4 = np.zeros(n_steps + 1)
    top = np.max([scale for _, _, scale, _, _ in results], axis=0)
    top_sq = np.zeros(n_steps + 1)
    diverged = 0
    for sum_sq, sum_q4, scale, bad, max_sq in results:
        total_sq += sum_sq
        total_q4 += np.ldexp(sum_q4, 2 * (scale - top))
        np.fmax(top_sq, np.ldexp(max_sq, scale - top), out=top_sq)
        diverged += bad
    mean_sq = total_sq / m_total
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        # the variance of the squares at the scale 2**(-2 top)
        scaled_sq = np.ldexp(total_sq, -top)
        var = (total_q4 - scaled_sq * scaled_sq / m_total) / (m_total - 1)
        stderr = np.ldexp(np.sqrt(np.maximum(var, 0.0) / m_total), top)
        share = np.where(scaled_sq == 0.0, 0.0, top_sq / scaled_sq)
    return MomentEstimate(
        cfg.step, mean_sq, stderr, m_total, cfg.master_seed, diverged, tilt,
        float(np.max(share)),
    )


def simulate_single_path(
    mu: SignedMeasure,
    nu: SignedMeasure,
    phi: Segment,
    h: float,
    T: float,
    increments: np.ndarray,
) -> PathRecord:
    """One path driven by the given increments, with its noise terms recorded."""
    n_steps = exact_divisions(T, h, "horizon")
    increments = np.asarray(increments, dtype=float)
    if increments.shape != (n_steps,):
        raise ConfigurationError(BAD_VALUE, "increments must have one entry per step")
    n_hist = phi.values.size - 1
    path = np.empty((n_hist + n_steps + 1, 1))
    path[: n_hist + 1, 0] = phi.values
    g_nu = CompiledFunctional(nu, h)
    # the chunks' stepper on one column, with its rescales undone exactly
    for n, idx in _euler_maruyama(CompiledFunctional(mu, h), g_nu, path, increments[:, None], h):
        path[n + 1 :, idx] *= 2.0**RESCALE_BITS
    noise_values = g_nu.trace(path[:, 0])[:n_steps]
    return PathRecord(path[n_hist:, 0], increments, noise_values)


def variation_of_constants_residual(
    record: PathRecord, r: ResolventTable, x: SolutionTable
) -> float:
    """Max defect of the path in the resolvent representation.

    Rebuilds x(t) + sum over n < m of r(t_m - t_n) G(X_at_t_n) dW_n from the
    recorded data and returns max_t |X(t) - rebuilt(t)|.
    """
    g_dw = record.noise_values * record.increments
    n = g_dw.size
    xv = x.trace.values
    rebuilt = xv[1 : n + 1] + convolve(r.trace.values[1:], g_dw, n)
    gap = np.abs(record.values[1 : n + 1] - rebuilt)
    return float(gap.max(initial=abs(record.values[0] - xv[0])))


def verify_variation_of_constants(
    mu: SignedMeasure,
    nu: SignedMeasure,
    phi: Segment,
    cfg: SimulationConfig,
    path_index: int,
) -> float:
    """Max residual of one simulated path in the resolvent representation."""
    n_steps = exact_divisions(cfg.horizon, cfg.step, "horizon")
    increments = _normal_increments(
        cfg.master_seed, path_index, path_index + 1, n_steps, cfg.step
    )[:, 0]
    record = simulate_single_path(mu, nu, phi, cfg.step, cfg.horizon, increments)
    r = compute_resolvent(mu, cfg.step, cfg.horizon)
    x = deterministic_solution(mu, phi, cfg.step, cfg.horizon)
    return variation_of_constants_residual(record, r, x)
